"""Every small tolerance of the package lives in the table at the top of channels.py."""

import ast
from pathlib import Path

import chandet

SRC = Path(chandet.__file__).parent
# a float literal at or below this magnitude is a tolerance
SMALL = 1e-6


def small_floats(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) <= SMALL
    ]


def test_no_tolerance_outside_the_table():
    channels = ast.parse((SRC / "channels.py").read_text())
    # the table: module-level assignments of a literal in channels.py
    table = [
        stmt.value
        for stmt in channels.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
    ]
    assert small_floats(ast.Module(body=table, type_ignores=[]))  # the guard is not vacuous
    allowed = {id(node) for node in table}
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = channels if path.name == "channels.py" else ast.parse(path.read_text())
        stray += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in small_floats(tree)
            if id(node) not in allowed
        ]
    assert stray == [], "tolerance literals outside the table in channels.py:\n" + "\n".join(stray)
