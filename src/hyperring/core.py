"""Finite Krasner (m,n)-hyperrings as explicit operation tables.

A structure lives on a carrier {0, .., size-1} and consists of an m-ary
hyperoperation (the "hyperaddition", returning nonempty element sets) and an
n-ary single-valued operation (the "multiplication").  An entry is addressed
by the multiset of its arguments, which makes commutativity hold by
construction.

Each table is stored once, as a flat tuple of cells indexed by the *rank* of
a multiset key: its position in ``multisets(size, arity)`` order.  A
hyperaddition cell is the int bitmask of its value set (bit x for element
x), so a union is an OR and membership a bit test; a multiplication cell is
the product.  ``table_shape`` caches per shape the rank of every key and the
extension table ``ext[rank(rest)][x] = rank(rest + (x,))``, so a scan that
adds one argument to a known sub-multiset neither sorts nor hashes, and
``BITS`` lists the elements of a mask.  ``FiniteStructure.add`` and ``.mul``
are read-only ``Mapping`` views (key -> frozenset or element) over the cells
for callers; every scan in the package reads the cells, iterated products
from per-length tables (``product_table``).  Every map between carriers acts
on ranked keys through one primitive, ``carrier_map``.

Verification is exhaustive and witness-producing.  Each checked axiom is one
``Clause``: its cases (table rows, in scan order), one function that gives
a case's violation witness or None, and its bulk verdict ``holds``, bit
tests over rows that the ``Shape`` keeps, as ``ideals.is_hyperideal`` reads
the mask tables; only a clause whose verdict fails is scanned, for its
first witness.  ``replay_axiom_check`` calls the same function on the
witness's case, so a scan and its replay cannot drift apart.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence


class StructureError(ValueError):
    """Malformed table data (non-total, out-of-range, conflicting)."""


class ArityError(StructureError):
    """Wrong number of arguments for an operation."""


class ForeignElementError(StructureError):
    """Argument is not an element of the carrier."""


class MissingIdentityError(ValueError):
    """Operation requires a multiplicative scalar identity, none detected."""


class CapExceeded(RuntimeError):
    """A stage of a public call would pass ``WORK_BUDGET``; see ``Meter``."""


# the one message of ``FiniteStructure.proper_subset``
PROPER_REQUIRED = "a proper subset of the carrier is required"


Multiset = tuple  # sorted tuple of element ids


def msort(args: Sequence[int]) -> Multiset:
    return tuple(sorted(args))


def multisets(size: int, length: int) -> Iterator[Multiset]:
    """All sorted tuples of the given length over carrier {0..size-1}."""
    return combinations_with_replacement(range(size), length)


def count_multisets(size: int, length: int) -> int:
    """The number of ``multisets(size, length)``."""
    return comb(size + length - 1, length)


def plan_splits(size: int, total: int, part: int) -> int:
    """The splits of ``ranked_plan(size, total, part)``, counted unbuilt."""
    return count_multisets(size, part) * count_multisets(size, total - part)


@lru_cache(maxsize=128)
def ranked_plan(size: int, total: int, part: int) -> tuple:
    """Every ``total``-multiset over {0..size-1}, in ``multisets`` order, with
    each of its distinct ``part``-sub-multisets A, in lexicographic order,
    as (A, rank of A, rank of the remainder), each
    ranked among the multisets of its length, so that a scan reads table
    cells without sorting or hashing.

    The plan depends on the shape only, never on a table, so the exhaustive
    scans that split multisets (associativity, reversibility, the
    (k,n)-absorbing scan) share one copy per shape.  Plans are built on first
    use and the cache is bounded.
    """
    rests = table_shape(size, total - part).keys
    splits: dict = {whole: [] for whole in multisets(size, total)}
    # each (A, remainder) pair is one split of one whole, reached in A's order
    for a, A in enumerate(table_shape(size, part).keys):
        for b, B in enumerate(rests):
            splits[msort(A + B)].append((A, a, b))
    return tuple((whole, tuple(row)) for whole, row in splits.items())


# -- ranked table storage ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class Shape:
    """The ``arity``-multisets over {0..size-1}, ranked.

    ``keys`` lists them in ``multisets`` order and ``rank`` maps each back to
    its position.  ``rest_rank`` ranks the (arity-1)-multisets the same way,
    and ``ext[rest_rank[rest]][x]`` is the rank of ``msort(rest + (x,))``.
    The rows that the axiom verdicts and ``identities`` read are kept once
    built: ``diagonal`` and ``splits`` per shape, ``pair_rows`` and
    ``absorbing`` per shape and zero.
    """

    size: int
    arity: int
    keys: tuple
    rank: dict
    rest_rank: dict
    ext: tuple

    @cached_property
    def diagonal(self) -> tuple:
        """Per element e, the ``ext`` row of the (arity-1)-multiset e..e."""
        return tuple(self.ext[self.rest_rank[(e,) * (self.arity - 1)]] for e in range(self.size))

    @cached_property
    def splits(self) -> tuple:
        """(pairs, heads) over the rows of ``ranked_plan(size, 2*arity-1,
        arity)`` with more than one split: per split, in plan order, the rank
        of its sub-multiset with the ``ext`` line of its remainder, and the
        position of its row's first split."""
        pairs, heads = [], []
        for _, splits in ranked_plan(self.size, 2 * self.arity - 1, self.arity):
            if len(splits) > 1:
                heads += [len(pairs)] * len(splits)
                pairs += [(a, self.ext[rest]) for _, a, rest in splits]
        return tuple(pairs), tuple(heads)

    @cached_property
    def pair_rows(self) -> _Memo:
        """zero -> per x, the ``ext`` row of (x, zero, .., zero)."""
        ext, rest_rank, pad = self.ext, self.rest_rank, self.arity - 2
        return _Memo(lambda zero: tuple(ext[rest_rank[msort((x,) + (zero,) * pad)]] for x in range(self.size)))

    @cached_property
    def absorbing(self) -> _Memo:
        """zero -> the ranks of g(rest, zero) over the (arity-1)-multisets
        rest, and as many zeros."""
        return _Memo(lambda zero: (tuple(row[zero] for row in self.ext), (zero,) * len(self.ext)))


@lru_cache(maxsize=128)
def table_shape(size: int, arity: int) -> Shape:
    """The ranking of one table shape, built on first use and shared by
    every structure of that shape."""
    keys = tuple(multisets(size, arity))
    rank = {key: r for r, key in enumerate(keys)}
    # ranked in place, not through table_shape(size, arity - 1), so a large
    # arity costs no recursion depth
    rest_rank = {rest: r for r, rest in enumerate(multisets(size, arity - 1))}
    ext = tuple(tuple(rank[msort(rest + (x,))] for x in range(size)) for rest in rest_rank)
    return Shape(size, arity, keys, rank, rest_rank, ext)


class _Memo(dict):
    """key -> fn(key), each value computed on first use."""

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# a mask's elements as an ascending tuple and as a frozenset; they do not
# depend on the carrier size, so one memo of each serves every structure
BITS = _Memo(lambda mask: tuple(x for x in range(mask.bit_length()) if mask >> x & 1))
SETS = _Memo(lambda mask: frozenset(BITS[mask]))


def mask_of(elements: Iterable[int]) -> int:
    """The bitmask of a set of carrier elements."""
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def _union(cells: Sequence[int], row: Sequence[int], mask: int) -> int:
    """f(s, rest) united over the elements s of a mask, for the
    hyperaddition cells and the ``ext`` row of rest."""
    out = 0
    for s in BITS[mask]:
        out |= cells[row[s]]
    return out


class TableView(abc.Mapping):
    """Read-only view of one ranked table as multiset key -> value: a
    frozenset for hyperaddition cells (bitmasks, ``sets``), an element for
    multiplication cells."""

    __slots__ = ("shape", "cells", "sets")

    def __init__(self, shape: Shape, cells: tuple, sets: bool) -> None:
        self.shape, self.cells, self.sets = shape, cells, sets

    def __getitem__(self, key):
        cell = self.cells[self.shape.rank[key]]
        return SETS[cell] if self.sets else cell

    def __iter__(self) -> Iterator[Multiset]:
        return iter(self.shape.keys)

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableView):
            return abc.Mapping.__eq__(self, other)
        return (self.sets, self.shape.keys, self.cells) == (other.sets, other.shape.keys, other.cells)

    def __hash__(self) -> int:
        return hash((self.sets, self.cells))

    def __repr__(self) -> str:
        return f"TableView({dict(self)!r})"


def _ranked(table: Mapping, shape: Shape, sets: bool, what: str):
    """(view, error): the table as a view over its ranked cells, and the
    error of its first malformed value in the table's own order, or None.
    A missing or foreign key raises at once.  A view of the same shape is
    kept as it is once its cells pass a range check."""
    size = shape.size
    if isinstance(table, TableView) and table.shape is shape and table.sets == sets:
        low, high = min(table.cells), max(table.cells)
        if (0 < low and high >> size == 0) if sets else (0 <= low and high < size):
            return table, None
    rank, keys = shape.rank, shape.keys
    cells: list = [None] * len(keys)
    extra, error = [], None
    for key, value in table.items():
        r = rank.get(key)
        if r is None:
            extra.append(key)
            continue
        cells[r] = 0
        if not sets:
            if 0 <= value < size:
                cells[r] = value
            elif error is None:
                error = ForeignElementError(f"{what} value out of range at {key}")
        elif not isinstance(value, frozenset) or not value:
            if error is None:
                error = StructureError(f"empty or non-set {what} value at {key}")
        elif all(0 <= v < size for v in value):
            cells[r] = mask_of(value)
        elif error is None:
            error = ForeignElementError(f"{what} value out of range at {key}")
    if None in cells:
        raise StructureError(f"{what} table missing entry {keys[cells.index(None)]}")
    if extra:
        raise StructureError(f"{what} table has foreign key {min(extra)}")
    return TableView(shape, tuple(cells), sets), error


# -- the work budget ----------------------------------------------------------

# The one bound on the steps a public call may take in one stage: counted
# before anything is built where the shape fixes them (plan splits, maps
# tried), as the loop runs elsewhere (search nodes, closure steps, instances).
WORK_BUDGET = 2_000_000


class Meter:
    """The steps of one stage of a public call; ``spend`` raises ``CapExceeded``
    with the stage and the count once they pass the ``WORK_BUDGET`` read first."""

    def __init__(self, stage: str) -> None:
        self.stage, self.steps, self.limit = stage, 0, WORK_BUDGET

    def spend(self, steps: int = 1) -> None:
        self.steps += steps
        if self.steps > self.limit:
            raise CapExceeded(
                f"{self.stage}: {self.steps:,} steps exceed the work budget of {self.limit:,}"
            )


@dataclass(frozen=True)
class FiniteStructure:
    """Carrier plus hyperaddition/multiplication tables.

    ``add`` maps m-multisets to nonempty frozensets, ``mul`` maps n-multisets
    to single elements; after construction both are read-only
    ``TableView``s over the ranked cells ``add_cells`` (bitmasks) and
    ``mul_cells`` (elements) of the shapes ``add_shape`` and ``mul_shape``.
    ``zero`` is the declared additive neutral element.  Values derived from
    the tables, such as the scalar identity ``one`` and the hyperideal
    ``lattice`` (with its ``registry`` of standard expansions), are computed
    on first read and take no part in equality, hashing or export.
    Construction checks well-formedness only; the algebraic axioms are the
    verifiers' job, so deliberately broken tables can be built and audited.
    """

    name: str
    m: int
    n: int
    labels: tuple[str, ...]
    add: Mapping[Multiset, frozenset]
    mul: Mapping[Multiset, int]
    zero: int
    carrier: range = field(init=False, repr=False, compare=False, hash=False)
    add_shape: Shape = field(init=False, repr=False, compare=False, hash=False)
    mul_shape: Shape = field(init=False, repr=False, compare=False, hash=False)
    add_cells: tuple = field(init=False, repr=False, compare=False, hash=False)
    mul_cells: tuple = field(init=False, repr=False, compare=False, hash=False)

    # -- construction ------------------------------------------------------

    def __post_init__(self) -> None:
        size = len(self.labels)
        if size == 0:
            raise StructureError("empty carrier")
        if len(set(self.labels)) != size:
            raise StructureError("duplicate element labels")
        if self.m < 2 or self.n < 2:
            raise StructureError("arities must be at least 2")
        if not (0 <= self.zero < size):
            raise ForeignElementError("zero outside carrier")
        # one pass per table ranks and checks every entry; the errors keep
        # their order: keys of f, keys of g, values of f, values of g
        add, add_error = _ranked(self.add, table_shape(size, self.m), True, "hyperaddition")
        mul, mul_error = _ranked(self.mul, table_shape(size, self.n), False, "multiplication")
        if add_error or mul_error:
            raise add_error or mul_error
        # the fields are frozen, so they are set past __setattr__
        vars(self).update(
            carrier=range(size),
            add=add,
            mul=mul,
            add_shape=add.shape,
            mul_shape=mul.shape,
            add_cells=add.cells,
            mul_cells=mul.cells,
        )

    @classmethod
    def build(
        cls,
        name: str,
        m: int,
        n: int,
        labels: Sequence[str],
        add: Mapping[Multiset, frozenset],
        mul: Mapping[Multiset, int],
        zero: int,
        declared_one: Optional[int] = None,
    ) -> "FiniteStructure":
        """Construct, checking a declared scalar identity against the
        detected one, ``one``: a contradiction is an error, so downstream
        predicates stay honest.
        """
        S = cls(name, m, n, tuple(labels), add, mul, zero)
        if declared_one is None or declared_one == S.one:
            return S
        if not 0 <= declared_one < S.size:
            raise ForeignElementError(f"declared identity {declared_one} outside carrier")
        raise StructureError(
            f"declared identity {S.labels[declared_one]!r} does not act as one"
            f" (detected: {'none' if S.one is None else S.labels[S.one]!r})"
        )

    # -- basics ------------------------------------------------------------

    def __repr__(self) -> str:
        one = "none" if self.one is None else self.labels[self.one]
        return (
            f"FiniteStructure({self.name!r}, ({self.m},{self.n}),"
            f" size={self.size}, zero={self.labels[self.zero]!r}, one={one!r})"
        )

    @cached_property
    def size(self) -> int:
        return len(self.labels)

    def labels_of(self, xs) -> tuple[str, ...]:
        return tuple(self.labels[x] for x in sorted(xs))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ForeignElementError(f"unknown element label {label!r}") from None

    # -- argument preconditions, each written once ---------------------------

    def subset(self, xs: Iterable) -> frozenset:
        """``xs`` as a frozenset of carrier elements; ``ForeignElementError``
        names the least foreign integer, else a foreign non-integer."""
        members, size = frozenset(xs), len(self.labels)
        for x in members:
            if not (isinstance(x, int) and 0 <= x < size):
                ints = [y for y in members if isinstance(y, int) and not 0 <= y < size]
                named = min(ints) if ints else min((y for y in members if not isinstance(y, int)), key=repr)
                raise ForeignElementError(f"element {named} outside carrier")
        return members

    def proper_subset(self, xs: Iterable) -> frozenset:
        """``subset(xs)``, and ``ValueError`` when it is the whole carrier."""
        members = self.subset(xs)
        if len(members) == len(self.labels):
            raise ValueError(PROPER_REQUIRED)
        return members

    def require_one(self) -> int:
        """The scalar identity ``one``, or ``MissingIdentityError``."""
        if self.one is None:
            raise MissingIdentityError(f"{self.name} has no scalar identity")
        return self.one

    def _check_args(self, args: Sequence[int], arity: int) -> None:
        if len(args) != arity:
            raise ArityError(f"expected {arity} arguments, got {len(args)}")
        self.subset(args)

    def add_row(self, rest: Multiset) -> tuple:
        """The ranks of f(rest, x) for x over the carrier, rest an
        (m-1)-multiset."""
        return self.add_shape.ext[self.add_shape.rest_rank[rest]]

    def mul_row(self, rest: Multiset) -> tuple:
        """The ranks of g(rest, x) for x over the carrier, rest an
        (n-1)-multiset."""
        return self.mul_shape.ext[self.mul_shape.rest_rank[rest]]

    # -- hyperaddition -----------------------------------------------------

    def hyperadd(self, args: Sequence[int]) -> frozenset:
        self._check_args(args, self.m)
        return SETS[self.add_cells[self.add_shape.rank[msort(args)]]]

    def hyperadd_subsets(self, sets: Sequence) -> frozenset:
        """Subset extension: union of the table over the argument product."""
        if len(sets) != self.m:
            raise ArityError(f"expected {self.m} argument sets, got {len(sets)}")
        pools = []
        for s in sets:
            s = self.subset(s)
            if not s:
                raise StructureError("empty argument set for hyperaddition")
            pools.append(sorted(s))
        rank, cells = self.add_shape.rank, self.add_cells
        mask = 0
        for combo in product(*pools):
            mask |= cells[rank[msort(combo)]]
        return SETS[mask]

    def hyperadd_iterated(self, args: Sequence[int]) -> frozenset:
        """Left-nested fold of the hyperaddition over l(m-1)+1 arguments."""
        t = len(args)
        _check_length(t, self.m, "hyperaddition")
        self.subset(args)
        if t == 1:
            return frozenset({args[0]})
        cells = self.add_cells
        acc = cells[self.add_shape.rank[msort(args[: self.m])]]
        for i in range(self.m, t, self.m - 1):
            acc = _union(cells, self.add_row(msort(args[i : i + self.m - 1])), acc)
        return SETS[acc]

    # -- multiplication ----------------------------------------------------

    def multiply(self, args: Sequence[int]) -> int:
        self._check_args(args, self.n)
        return self.mul_cells[self.mul_shape.rank[msort(args)]]

    def multiply_iterated(self, args: Sequence[int]) -> int:
        """Left-nested fold of the multiplication over l(n-1)+1 arguments."""
        t = len(args)
        _check_length(t, self.n, "multiplication")
        self.subset(args)
        cells, shape, n = self.mul_cells, self.mul_shape, self.n
        acc = args[0] if t == 1 else cells[shape.rank[msort(args[:n])]]
        for i in range(n, t, n - 1):
            acc = cells[shape.ext[shape.rest_rank[msort(args[i : i + n - 1])]][acc]]
        return acc

    def product_table(self, t: int) -> tuple:
        """Entry r is ``multiply_iterated`` of the t-multiset of rank r, for
        t = l(n-1)+1: g(product of its first t-n+1 elements, its last n-1),
        read from the (t-n+1)-table.  Built once per structure and length and
        kept out of equality and hashing."""
        tables = vars(self).setdefault("_products", {1: tuple(self.carrier)})
        if t not in tables:
            _check_length(t, self.n, "multiplication")
            prev, cells = self.product_table(t - self.n + 1), self.mul_cells
            tables[t] = tuple(cells[row[prev[a]]] for a, row in _fold_plan(self.size, t, self.n))
        return tables[t]

    @cached_property
    def lattice(self) -> IdealLattice:
        """``enumerate_hyperideals`` of the structure, kept; a refusal is kept
        with its ``WORK_BUDGET`` and raised again while that budget stands."""
        from .ideals import enumerate_hyperideals  # ideals imports core

        budget, refusal = vars(self).get("_refusal", (None, None))
        if budget == WORK_BUDGET:
            raise refusal.with_traceback(None)
        try:
            return enumerate_hyperideals(self)
        except CapExceeded as e:
            vars(self)["_refusal"] = (WORK_BUDGET, e)
            raise

    @cached_property
    def identities(self) -> tuple[int, ...]:
        """Elements acting as scalar identity of the multiplication: each e
        whose e..e row of products (``Shape.diagonal``) is the carrier."""
        get, units, rows = self.mul_cells.__getitem__, tuple(self.carrier), self.mul_shape.diagonal
        return tuple([e for e, row in zip(units, rows) if tuple(map(get, row)) == units])

    @cached_property
    def one(self) -> Optional[int]:
        """The scalar identity of the multiplication, None unless exactly one
        element acts as one."""
        ones = self.identities
        return ones[0] if len(ones) == 1 else None

    def add_inverse(self, x: int) -> Optional[int]:
        """The unique y with zero in x+y+0+..+0, or None if not unique."""
        self.subset((x,))
        cands = self._inverse_table[x]
        return cands[0] if len(cands) == 1 else None

    @cached_property
    def _inverse_table(self) -> tuple[tuple[int, ...], ...]:
        return inverse_candidates(self.size, self.m, self.zero, self.add_cells)


@lru_cache(maxsize=128)
def _fold_plan(size: int, t: int, n: int) -> tuple:
    """Per t-multiset over {0..size-1}, in rank order, t = l(n-1)+1 > 1:
    the rank of its first t-n+1 elements among the multisets of that length,
    and the ``ext`` row of the n-multisets over its last n-1 elements, so
    that ``product_table`` reads g(head product, tail) with no sorting or
    hashing.  Shared by every structure of the shape."""
    head, shape = table_shape(size, t - n + 1).rank, table_shape(size, n)
    return tuple(
        (head[key[: 1 - n]], shape.ext[shape.rest_rank[key[1 - n :]]])
        for key in table_shape(size, t).keys
    )


def _check_length(t: int, arity: int, what: str) -> None:
    """ArityError unless t = l(arity-1)+1 for some l >= 0."""
    if t < 1 or (t - 1) % (arity - 1) != 0:
        raise ArityError(f"iterated {what} needs l*{arity - 1}+1 arguments, got {t}")


def inverse_candidates(size: int, m: int, zero: int, cells: Sequence[int]) -> tuple[tuple, ...]:
    """For each x, every y with zero in x+y+0+..+0, ascending, over bare
    hyperaddition cells of shape (size, m); only the cells of the keys
    (x, y, 0, .., 0) are read."""
    bit, rows = 1 << zero, table_shape(size, m).pair_rows[zero]
    return tuple(tuple([y for y, r in enumerate(row) if cells[r] & bit]) for row in rows)


def is_invertible(S: FiniteStructure, x: int) -> bool:
    return mul_inverse(S, x) is not None


def mul_inverse(S: FiniteStructure, x: int) -> Optional[int]:
    """A witness y with x*y*1*..*1 = 1, or None."""
    one = S.require_one()
    S.subset((x,))
    row = S.mul_row(msort((x,) + (one,) * (S.n - 2)))
    return next((y for y in S.carrier if S.mul_cells[row[y]] == one), None)


# -- axiom verification ----------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    witness: Optional[tuple] = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "witness": _jsonable(self.witness),
            "note": self.note,
        }


def _jsonable(obj):
    if isinstance(obj, (tuple, list)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


@dataclass(frozen=True)
class AxiomReport:
    structure: str
    checks: tuple[AxiomCheck, ...]

    @cached_property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def as_dict(self) -> dict:
        return {
            "structure": self.structure,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
        }


def _guard(S: FiniteStructure, ring: bool) -> None:
    """Refuse, before any plan is built, a verification whose clauses read
    more splits than the budget: the associativity and reversibility plans,
    and for distributivity each (n-1)-multiset with each cell of f."""
    size, m, n = S.size, S.m, S.n
    steps = plan_splits(size, 2 * m - 1, m) + plan_splits(size, m, 1)
    if ring:
        steps += plan_splits(size, 2 * n - 1, n) + plan_splits(size, n - 1 + m, m)
    override = "size_guard=False, on the command line verify --allow-large, lifts the budget"
    Meter(f"{S.name}: verification plan splits ({override})").spend(steps)


@dataclass(frozen=True)
class Clause:
    """One checked condition, written once for its scan and its replay.

    ``cases(*ctx)`` yields the cases in scan order, one table row each;
    ``violation(*ctx, case)`` gives the witness of the row's first violation
    or None.  ``ctx`` is ``(S,)`` for an axiom, ``(S, members)`` for a
    hyperideal or prime clause and ``(S, Q, trigger, target)`` for the
    J-family drop clause.  An axiom also carries its bulk verdict
    ``holds(*ctx)``, true exactly when ``scan`` finds no witness, read with
    bit tests over the rows its ``Shape`` keeps, so that the verifiers scan
    only a clause that fails.
    """

    name: str
    cases: Callable[..., Iterable]
    violation: Callable[..., Optional[tuple]]
    holds: Optional[Callable[..., bool]] = None

    def scan(self, *ctx) -> Optional[tuple]:
        """The witness of the first violated case, or None."""
        for case in self.cases(*ctx):
            witness = self.violation(*ctx, case)
            if witness is not None:
                return witness
        return None

    def replays(self, witness, *ctx) -> bool:
        """True iff the witness's case gives back exactly this witness, compared
        in JSON form so that a witness read back from a report replays too."""
        want = _jsonable(witness)
        found = (_jsonable(self.violation(*ctx, c)) for c in self.cases(*ctx))
        return want is not None and want in found


def _neutral(S: FiniteStructure, case: tuple) -> Optional[tuple]:
    # ("not-neutral", x): f(0..0, x) must be exactly {x}; ("extra-neutral",
    # e): no element other than zero may act as a scalar neutral; each reads
    # its row of ``diagonal``, f(0..0, x) and f(e..e, x) over x
    kind, e = case
    cells, rows = S.add_cells, S.add_shape.diagonal
    if kind == "not-neutral":
        return (kind, e) if cells[rows[S.zero][e]] != 1 << e else None
    row = rows[e]
    neutral = e != S.zero and all(cells[row[x]] == 1 << x for x in S.carrier)
    return (kind, e) if neutral else None


def _neutral_holds(S: FiniteStructure) -> bool:
    # the zero row is the singleton masks, and no other e..e row is
    get, singles = S.add_cells.__getitem__, tuple(1 << x for x in S.carrier)
    rows = [tuple(map(get, row)) for row in S.add_shape.diagonal]
    return rows[S.zero] == singles and rows.count(singles) == 1


def _inverses(S: FiniteStructure, x: int) -> Optional[tuple]:
    cands = S._inverse_table[x]
    if len(cands) == 1:
        return None
    return ("multiple", x, cands[0], cands[1]) if cands else ("none", x)


@lru_cache(maxsize=256)
def _reversibility_cases(size: int, m: int, inv: tuple) -> tuple:
    # per m-multiset, by rank, given the inverse candidates ``inv`` of a
    # table: each element a with the ranks of f(x, the inverses of the
    # others) over x.  Instances whose inverses are undefined are already
    # reported by the inverse check, so they are left out.  Tables with the
    # same inverses share one copy.
    shape = table_shape(size, m)
    inverses = tuple(
        shape.ext[shape.rest_rank[msort(inv[o][0] for o in others)]]
        if all(len(inv[o]) == 1 for o in others)
        else None
        for others in shape.rest_rank
    )
    return tuple(
        (r, key, tuple((a, inverses[rest]) for _, a, rest in splits if inverses[rest] is not None))
        for r, (key, splits) in enumerate(ranked_plan(size, m, 1))
    )


def _reversibility(S: FiniteStructure, case: tuple) -> Optional[tuple]:
    # x in f(a_1..a_m) forces each a_i in f(x, inverses of the others)
    r, key, usable = case
    cells = S.add_cells
    for x in BITS[cells[r]]:
        for a, row in usable:
            if not cells[row[x]] >> a & 1:
                return key, x, a
    return None


def _reversible(S: FiniteStructure) -> bool:
    cells = S.add_cells
    for r, _, usable in _reversibility_cases(S.size, S.m, S._inverse_table):
        xs = BITS[cells[r]]
        for a, row in usable:
            bit = 1 << a
            for x in xs:
                if not cells[row[x]] & bit:
                    return False
    return True


def solvability_violation(S: FiniteStructure, pool, rest: Multiset) -> Optional[tuple]:
    """(rest, b) for the least b in ``pool`` outside f(rest, t) for every t
    in ``pool``, or None: the solvability clause over the carrier, and over a
    subset's members for the hyperideal clause."""
    cells, row = S.add_cells, S.add_row(rest)
    reached = 0
    for t in pool:
        reached |= cells[row[t]]
    for b in sorted(pool):
        if not reached >> b & 1:
            return rest, b
    return None


def _solvable(S: FiniteStructure) -> bool:
    # the cells of each ``ext`` row unite to the whole carrier
    cells, full = S.add_cells, (1 << S.size) - 1
    for row in S.add_shape.ext:
        reached = 0
        for r in row:
            reached |= cells[r]
        if reached != full:
            return False
    return True


def add_associativity_violation(cells: Sequence[int], ext: tuple, row: tuple) -> Optional[tuple]:
    """The add-associativity clause on one ``ranked_plan`` row of bare
    hyperaddition cells with the shape's ``ext`` table: (whole, A, B) for
    the row's first sub-multiset A and the first B whose bracket differs
    from A's, or None.

    With multiset-keyed (commutative) tables, m-ary associativity over all
    (2m-1)-tuples is equivalent to: for every (2m-1)-multiset, the value of
    f(f(A), rest), the union of f(s, rest) over s in f(A), does not depend
    on the chosen m-sub-multiset A."""
    whole, splits = row
    splits = iter(splits)
    A, a, rest = next(splits)
    line = ext[rest]
    first = 0
    for s in BITS[cells[a]]:
        first |= cells[line[s]]
    for B, b, rest in splits:
        line = ext[rest]
        value = 0
        for s in BITS[cells[b]]:
            value |= cells[line[s]]
        if value != first:
            return whole, A, B
    return None


def _add_associative(S: FiniteStructure) -> bool:
    # every split's bracket equals that of its row's first split
    cells, (pairs, heads) = S.add_cells, S.add_shape.splits
    values = []
    for a, line in pairs:
        value = 0
        for s in BITS[cells[a]]:
            value |= cells[line[s]]
        values.append(value)
    return values == [values[h] for h in heads]


def mul_associativity_violation(cells: Sequence[int], ext: tuple, row: tuple) -> Optional[tuple]:
    """The mul-associativity clause on one ``ranked_plan`` row of bare
    multiplication cells with the shape's ``ext`` table: (whole, A, B) for
    the row's first sub-multiset A and the first B with g(g(B), rest) other
    than g(g(A), rest), or None."""
    whole, splits = row
    splits = iter(splits)
    A, a, rest = next(splits)
    first = cells[ext[rest][cells[a]]]
    for B, b, rest in splits:
        if cells[ext[rest][cells[b]]] != first:
            return whole, A, B
    return None


def _mul_associative(S: FiniteStructure) -> bool:
    cells, (pairs, heads) = S.mul_cells, S.mul_shape.splits
    values = [cells[line[cells[a]]] for a, line in pairs]
    return values == [values[h] for h in heads]


def _zero_absorbed(S: FiniteStructure) -> bool:
    ranks, zeros = S.mul_shape.absorbing[S.zero]
    return tuple(map(S.mul_cells.__getitem__, ranks)) == zeros


@lru_cache(maxsize=1024)
def carrier_map(phi: tuple, arity: int, size: int, target_size: int) -> tuple[dict, tuple]:
    """(image, target) of a map phi from {0..size-1} into
    {0..target_size-1}, a tuple of images: ``image[mask]`` is the mask of
    phi's image of the set ``mask``, and ``target[r]`` the rank, among the
    arity-multisets over the target, of phi applied to the arity-multiset of
    rank r.  Shared by every table of the shape that is tested against phi."""
    shape, into = table_shape(size, arity), table_shape(target_size, arity)
    target = tuple(into.rank[msort(phi[x] for x in key)] for key in shape.keys)
    return _Memo(lambda mask: mask_of(phi[s] for s in BITS[mask])), target


def map_violation(phi: tuple, table: TableView, into: TableView) -> Optional[Multiset]:
    """The first key xs of ``table``, in rank order, whose value phi does not
    carry to the value of ``into`` at phi(xs), phi a tuple of images; None
    when phi carries every cell over: value sets as set images for
    hyperaddition cells, products on the nose."""
    shape = table.shape
    image, target = carrier_map(phi, shape.arity, shape.size, into.shape.size)
    if not table.sets:
        image = phi
    cells, into_cells = table.cells, into.cells
    for r, t in enumerate(target):
        if image[cells[r]] != into_cells[t]:
            return shape.keys[r]
    return None


def _distributivity(S: FiniteStructure, a: Multiset) -> Optional[tuple]:
    # g(a_1..a_{n-1}, f(x_1..x_m)) elementwise must equal
    # f(g(a..x_1), .., g(a..x_m)): the translation x -> g(a, x) is an
    # endomorphism of f.  The position of the sum slot is irrelevant because
    # both tables are multiset-keyed.
    phi = tuple(S.mul_cells[r] for r in S.mul_row(a))
    xs = map_violation(phi, S.add, S.add)
    return None if xs is None else (a, xs)


def _distributive(S: FiniteStructure) -> bool:
    # each distinct translation x -> g(a, x) is an endomorphism of f
    get = S.mul_cells.__getitem__
    maps = {tuple(map(get, row)) for row in S.mul_shape.ext}
    return all(map_violation(phi, S.add, S.add) is None for phi in maps)


HYPERGROUP_AXIOMS = (
    Clause(
        "add-neutral",
        lambda S: product(("not-neutral", "extra-neutral"), S.carrier),
        _neutral,
        _neutral_holds,
    ),
    Clause(
        "add-inverses",
        lambda S: S.carrier,
        _inverses,
        lambda S: all(len(cands) == 1 for cands in S._inverse_table),
    ),
    Clause(
        "add-reversibility",
        lambda S: _reversibility_cases(S.size, S.m, S._inverse_table),
        _reversibility,
        _reversible,
    ),
    Clause(
        "add-solvability",
        lambda S: multisets(S.size, S.m - 1),
        lambda S, rest: solvability_violation(S, S.carrier, rest),
        _solvable,
    ),
    Clause(
        "add-associativity",
        lambda S: ranked_plan(S.size, 2 * S.m - 1, S.m),
        lambda S, row: add_associativity_violation(S.add_cells, S.add_shape.ext, row),
        _add_associative,
    ),
)
RING_AXIOMS = (
    Clause(
        "mul-associativity",
        lambda S: ranked_plan(S.size, 2 * S.n - 1, S.n),
        lambda S, row: mul_associativity_violation(S.mul_cells, S.mul_shape.ext, row),
        _mul_associative,
    ),
    Clause(
        "zero-absorbing",
        lambda S: multisets(S.size, S.n - 1),
        lambda S, rest: (rest,) if S.mul_cells[S.mul_row(rest)[S.zero]] != S.zero else None,
        _zero_absorbed,
    ),
    Clause("distributivity", lambda S: multisets(S.size, S.n - 1), _distributivity, _distributive),
)
AXIOMS = {c.name: c for c in HYPERGROUP_AXIOMS + RING_AXIOMS}


# checks are immutable, so each witness-free one is built once and shared
_PASSED = {name: AxiomCheck(name, True) for name in AXIOMS}
_ADD_COMMUTES = AxiomCheck("add-commutativity", True, None, "by multiset keying")
_MUL_COMMUTES = AxiomCheck("mul-commutativity", True, None, "by multiset keying")
_NO_IDENTITY = AxiomCheck("mul-identity", True, None, "absent")


def _check(clause: Clause, S: FiniteStructure) -> AxiomCheck:
    """The clause's bulk verdict, and its scan for a witness only when it fails."""
    if clause.holds(S):
        return _PASSED[clause.name]
    witness = clause.scan(S)
    return AxiomCheck(clause.name, witness is None, witness)


def _identity_info(S: FiniteStructure) -> AxiomCheck:
    ones = S.identities
    if len(ones) == 1:
        return AxiomCheck("mul-identity", True, None, f"detected {S.labels[ones[0]]}")
    if not ones:
        return _NO_IDENTITY
    return AxiomCheck("mul-identity", True, None, "ambiguous: " + str(list(ones)))


def verify_canonical_hypergroup(
    S: FiniteStructure, fail_fast: bool = False, size_guard: bool = True
) -> AxiomReport:
    """Check the canonical m-ary hypergroup axioms of the hyperaddition.

    Commutativity holds by multiset keying and is recorded informationally.
    Cheap local axioms run before the associativity sweep so that fail_fast
    enumeration callers exit early.  ``size_guard=False`` lifts the budget.
    """
    if size_guard:
        _guard(S, ring=False)
    checks = [_ADD_COMMUTES]
    for clause in HYPERGROUP_AXIOMS:
        c = _check(clause, S)
        checks.append(c)
        if fail_fast and not c.passed:
            break
    return AxiomReport(S.name, tuple(checks))


def verify_krasner(S: FiniteStructure, size_guard: bool = True) -> AxiomReport:
    """Full Krasner (m,n)-hyperring verification with witnesses, under the budget."""
    if size_guard:
        _guard(S, ring=True)
    checks = list(verify_canonical_hypergroup(S, size_guard=False).checks)
    checks.append(_MUL_COMMUTES)
    checks.extend(_check(clause, S) for clause in RING_AXIOMS)
    checks.append(_identity_info(S))
    return AxiomReport(S.name, tuple(checks))


def replay_axiom_check(S: FiniteStructure, check: AxiomCheck) -> bool:
    """Re-evaluate a failed check's witness with the axiom's own clause
    (KeyError for a name that has none); True means the violation holds."""
    return not check.passed and AXIOMS[check.axiom].replays(check.witness, S)
