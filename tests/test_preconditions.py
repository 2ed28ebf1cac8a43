"""Each argument precondition is written once, in ``core``.

``FiniteStructure.subset`` raises ``ForeignElementError`` for an element
outside the carrier, ``FiniteStructure.proper_subset`` raises ``ValueError``
with ``core.PROPER_REQUIRED`` for the whole carrier, and
``FiniteStructure.require_one`` raises ``MissingIdentityError``.  This
stdlib ``ast`` check keeps them there: no other module of the package raises
either error itself or builds a message about a proper subset or hyperideal.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperring"
MODULES = sorted(SRC.glob("*.py"))
CHECKED = {"ForeignElementError", "MissingIdentityError"}


def _raises(tree: ast.Module):
    """The ``raise`` statements of a module that name an exception."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            yield node, node.exc.func if isinstance(node.exc, ast.Call) else node.exc


def checked_raises(tree: ast.Module) -> list[str]:
    """The names of the ``CHECKED`` errors a module raises itself."""
    return [exc.id for _, exc in _raises(tree) if isinstance(exc, ast.Name) and exc.id in CHECKED]


def proper_messages(tree: ast.Module) -> int:
    """The raise statements whose message text speaks of being proper, in a
    plain or formatted string."""
    count = 0
    for node, _ in _raises(tree):
        texts = [
            n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)
        ]
        count += any("proper" in t for t in texts)
    return count


def test_the_checks_find_each_raise_and_message():
    source = (
        "def f(S):\n"
        "    raise ForeignElementError(f'element {x} outside carrier')\n"
        "    raise MissingIdentityError\n"
        "    raise ValueError(f'{what} test requires a proper hyperideal')\n"
        "    raise ValueError('improperly formed')\n"
        "    raise StructureError('no')\n"
        "    raise\n"
    )
    tree = ast.parse(source)
    assert checked_raises(tree) == ["ForeignElementError", "MissingIdentityError"]
    assert proper_messages(tree) == 2


def test_core_holds_the_one_proper_message():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    assert "MissingIdentityError" in checked_raises(tree)
    # proper_subset raises the module constant PROPER_REQUIRED, whose text is
    # the one message
    assert proper_messages(tree) == 0
    messages = [
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PROPER_REQUIRED"]
    ]
    assert len(messages) == 1 and "proper" in messages[0]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_other_module_checks_an_argument_precondition(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert checked_raises(tree) == []
    assert proper_messages(tree) == 0
