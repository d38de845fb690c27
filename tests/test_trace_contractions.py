"""No module of the package takes the trace of a matrix product.

``np.trace(A @ B)`` of N x N matrices forms the whole product, O(N^3) work
for the O(N^2) sum ``np.einsum("ij,ji->", A, B)``. On the largest admitted
Choi matrices (N = 1 296) that is about 0.27 s per trace against 11 ms, BLAS
at one thread.
Checked with the stdlib ``ast`` module, as the project ships no linter.
"""

import ast
from pathlib import Path

import chandet

PACKAGE = Path(chandet.__file__).parent


def _is_product(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)


def traced_products(path: Path) -> list[str]:
    """``file:line`` of each ``np.trace(A @ B)`` and ``(A @ B).trace()`` in the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "trace"):
            continue
        method = _is_product(node.func.value)
        function = isinstance(node.func.value, ast.Name) and node.args and _is_product(node.args[0])
        if method or function:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_the_check_sees_a_traced_product(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "a = np.trace(x @ y)\n"
        "b = (x @ y).trace()\n"
        "c = np.trace(x)\n"
        "d = np.einsum('ij,ji->', x, y)\n"
        "e = np.trace(t, axis1=0, axis2=2)\n"
    )
    assert traced_products(path) == ["mod.py:2", "mod.py:3"]


def test_no_traced_products():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in traced_products(path)]
    assert found == [], "take Tr[A B] as np.einsum('ij,ji->', A, B):\n" + "\n".join(found)
