"""The work budget is one policy, kept in ``core``.

``core.WORK_BUDGET`` bounds the work of a public call and ``core.Meter``
raises ``CapExceeded`` when a stage passes it.  This stdlib ``ast`` check
keeps both there: no other module of the package raises ``CapExceeded``
itself or defines a module-level number, which is the shape a size bound
takes.  Two numbers choose what is done, not how much, and are named here:
``SCAN_LIMIT``, the carrier size above which the lattice is grown by
closures instead of scanned, and ``MONO_FIXTURE_MAX_ORDER``, the order of
the catalog structures the audit embeds into.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperring"
MODULES = sorted(SRC.glob("*.py"))
STRATEGY = {"SCAN_LIMIT", "MONO_FIXTURE_MAX_ORDER"}


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    return isinstance(node, ast.BinOp) and _is_number(node.left) and _is_number(node.right)


def numeric_constants(tree: ast.Module) -> list[str]:
    """The names a module binds to a number at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_number(node.value):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and node.value and _is_number(node.value):
            names.append(node.target.id)
    return names


def cap_raises(tree: ast.Module) -> int:
    """The ``raise CapExceeded`` statements in a module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            count += isinstance(exc, ast.Name) and exc.id == "CapExceeded"
    return count


def test_the_checks_find_a_bound_and_a_raise():
    source = "A = 10**6\nB: int = -3\nC = 'text'\ndef f():\n    D = 4\n    raise CapExceeded('x')\n"
    tree = ast.parse(source)
    assert numeric_constants(tree) == ["A", "B"]
    assert cap_raises(tree) == 1


def test_core_holds_the_budget_and_its_one_raise():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    assert numeric_constants(tree) == ["WORK_BUDGET"]
    assert cap_raises(tree) == 1


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_other_module_bounds_work(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert set(numeric_constants(tree)) <= STRATEGY
    assert cap_raises(tree) == 0
