"""Every name a module of the package imports is used in that module, and
every private helper a module defines is read somewhere in the package.

No linter runs on the package; these stdlib ``ast`` checks catch the imports
and the helpers a refactor leaves behind.  The import check skips
``__init__.py``, since its imports are the package's re-exports, and
``from __future__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperring"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(SRC.glob("*.py"))}


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


def private_definitions(tree: ast.Module) -> set[str]:
    """The private names (``_x``, not dunder) that ``tree`` defines at module
    level: functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def names_read(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_private_definitions_finds_an_orphan():
    source = "def _used(): pass\ndef _left(): pass\n_X: int = 1\n__all__ = []\ndef f(): return _used()\n"
    tree = ast.parse(source)
    assert private_definitions(tree) - names_read(tree) == {"_left", "_X"}


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_helper_is_read(name):
    read = set().union(*map(names_read, TREES.values()))
    assert sorted(private_definitions(TREES[name]) - read) == []
