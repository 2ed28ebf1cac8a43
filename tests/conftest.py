from math import prod

import pytest

from hyperring import (
    CatalogEntry,
    FiniteStructure,
    builtin_examples,
    default_catalog,
    enumerate_structures,
    export_structure,
)
from hyperring.core import multisets


@pytest.fixture(scope="session")
def b33():
    """Built-in three-element (3,3)-structure on {0, 1, x}."""
    return builtin_examples()[0]


@pytest.fixture(scope="session")
def b24():
    """Built-in four-element (2,4)-structure on {0, 1, a, b}."""
    return builtin_examples()[1]


@pytest.fixture(scope="session")
def cyclic():
    """Z_N as a (2,n) hyperring, n = 2 unless given: singleton sums and
    products mod N."""

    def build(N: int, n: int = 2) -> FiniteStructure:
        add = {key: frozenset({sum(key) % N}) for key in multisets(N, 2)}
        mul = {key: prod(key) % N for key in multisets(N, n)}
        return FiniteStructure.build(f"Z{N}", 2, n, tuple(map(str, range(N))), add, mul, 0)

    return build


@pytest.fixture(scope="session")
def small_catalog():
    """Builtins plus all (2,2) structures of order up to 3."""
    entries = builtin_examples()
    for order in (1, 2, 3):
        for S in enumerate_structures(2, 2, order):
            entries.append(CatalogEntry(S, "enumerated"))
    return entries


@pytest.fixture(scope="session")
def full_catalog():
    """The default audit catalog (exhaustive order <= 3 plus order-4 slice)."""
    return default_catalog()


@pytest.fixture()
def kmn_file(tmp_path):
    def write(structure, name=None):
        path = tmp_path / f"{name or structure.name}.kmn"
        path.write_text(export_structure(structure), encoding="utf-8")
        return str(path)

    return write
