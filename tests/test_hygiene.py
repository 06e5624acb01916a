"""Source hygiene: no module imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import tdasim

PACKAGE = Path(tdasim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    """`file:line: name` for each name the file imports and never reads.

    `__future__` imports are directives, not names; the names a package's
    `__init__.py` lists in `__all__` are its re-exports.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (path.name == "__init__.py" and isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    files = sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
    assert len(files) > 10
    assert [entry for path in files for entry in unused_imports(path)] == []
