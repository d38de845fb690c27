"""No module of the package or of the tests imports a name that it never uses.

Checked with the stdlib ``ast`` module, as the project ships no linter.
``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import chandet

FOLDERS = (Path(chandet.__file__).parent, Path(__file__).parent)


def unused_imports(path: Path) -> list[str]:
    """``folder/file:line: name`` of each imported name that no expression of the module reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    where = f"{path.parent.name}/{path.name}"
    return [f"{where}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nimport numpy as np\nfrom a.b import c, d as e\n\nnp.eye(c)\n")
    assert unused_imports(path) == [f"{tmp_path.name}/mod.py:1: os", f"{tmp_path.name}/mod.py:3: e"]


def test_no_unused_imports():
    modules = [path for folder in FOLDERS for path in sorted(folder.glob("*.py")) if path.name != "__init__.py"]
    unused = [line for path in modules for line in unused_imports(path)]
    assert unused == [], "unused imports:\n" + "\n".join(unused)
