"""Every name a module of the package imports is used in that module.

No linter runs on the package; this stdlib ``ast`` check catches the imports
a refactor leaves behind.  ``__init__.py`` is skipped, since its imports are
the package's re-exports, and so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperring"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.AST) -> list[str]:
    """The names imported anywhere in ``tree`` that no ``Name`` node reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_orphan():
    source = "from x import a, b as c\nimport d.e\nfrom __future__ import annotations\nc(d)\n"
    assert unused_imports(ast.parse(source)) == ["a"]


def test_modules_exist():
    assert {p.name for p in MODULES} >= {"core.py", "ideals.py", "audit.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert unused_imports(tree) == []
