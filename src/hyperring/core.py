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
``Clause``: its cases (table rows, in scan order) and one function that gives
a case's violation witness or None.  The verifiers scan the cases for the
first witness; ``replay_axiom_check`` calls the same function on the
witness's case, so a scan and its replay cannot drift apart.
"""

from __future__ import annotations

from collections import Counter, abc
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
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
    """A configured enumeration/verification cap was hit."""


Multiset = tuple  # sorted tuple of element ids


def msort(args: Sequence[int]) -> Multiset:
    return tuple(sorted(args))


def multisets(size: int, length: int) -> Iterator[Multiset]:
    """All sorted tuples of the given length over carrier {0..size-1}."""
    return combinations_with_replacement(range(size), length)


def sub_multisets(ms: Multiset, length: int) -> list[Multiset]:
    """Distinct sub-multisets of a sorted tuple, in lexicographic order."""
    vals = sorted(Counter(ms).items())
    out: list[Multiset] = []

    def rec(i: int, remaining: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if i == len(vals):
            return
        v, c = vals[i]
        # taking more copies of the smaller value first keeps lex order
        for take in range(min(c, remaining), -1, -1):
            if remaining - take > sum(n for _, n in vals[i + 1 :]):
                continue
            rec(i + 1, remaining - take, acc + [v] * take)

    rec(0, length, [])
    return out


def multiset_minus(ms: Multiset, sub: Multiset) -> Multiset:
    left = Counter(ms)
    left.subtract(Counter(sub))
    if any(c < 0 for c in left.values()):
        raise ValueError(f"{sub} is not a sub-multiset of {ms}")
    return tuple(sorted(left.elements()))


@lru_cache(maxsize=128)
def ranked_plan(size: int, total: int, part: int) -> tuple:
    """Every ``total``-multiset over {0..size-1}, in ``multisets`` order, with
    each of its distinct ``part``-sub-multisets A, in the lexicographic order
    of ``sub_multisets``, as (A, rank of A, rank of the remainder), each
    ranked among the multisets of its length, so that a scan reads table
    cells without sorting or hashing.

    The plan depends on the shape only, never on a table, so the exhaustive
    scans that split multisets (associativity, reversibility, the
    (k,n)-absorbing scan) share one copy per shape.  Plans are built on first
    use and the cache is bounded.
    """
    rank_a = table_shape(size, part).rank
    rank_rest = table_shape(size, total - part).rank

    def split(whole: Multiset, A: Multiset) -> tuple:
        return A, rank_a[A], rank_rest[multiset_minus(whole, A)]

    return tuple(
        (whole, tuple(split(whole, A) for A in sub_multisets(whole, part)))
        for whole in multisets(size, total)
    )


# -- ranked table storage ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class Shape:
    """The ``arity``-multisets over {0..size-1}, ranked.

    ``keys`` lists them in ``multisets`` order and ``rank`` maps each back to
    its position.  ``rest_rank`` ranks the (arity-1)-multisets the same way,
    and ``ext[rest_rank[rest]][x]`` is the rank of ``msort(rest + (x,))``.
    """

    size: int
    arity: int
    keys: tuple
    rank: dict
    rest_rank: dict
    ext: tuple


@lru_cache(maxsize=128)
def table_shape(size: int, arity: int) -> Shape:
    """The ranking of one table shape, built on first use and shared by
    every structure of that shape."""
    keys = tuple(multisets(size, arity))
    rank = {key: r for r, key in enumerate(keys)}
    if arity == 0:
        return Shape(size, arity, keys, rank, {}, ())
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


# Exhaustive verification gets expensive fast; these guards keep desk-scale
# runs honest and are overridable where the caller knows what it is doing.
MAX_VERIFY_SIZE = 8
MAX_VERIFY_ARITY = 4


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

    @property
    def size(self) -> int:
        return len(self.labels)

    def labels_of(self, xs) -> tuple[str, ...]:
        return tuple(self.labels[x] for x in sorted(xs))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ForeignElementError(f"unknown element label {label!r}") from None

    def _check_args(self, args: Sequence[int], arity: int) -> None:
        if len(args) != arity:
            raise ArityError(f"expected {arity} arguments, got {len(args)}")
        size = len(self.labels)
        for a in args:
            if not (0 <= a < size):
                raise ForeignElementError(f"element {a} outside carrier")

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
            s = sorted(set(s))
            if not s:
                raise StructureError("empty argument set for hyperaddition")
            if not all(0 <= v < self.size for v in s):
                raise ForeignElementError("argument set outside carrier")
            pools.append(s)
        rank, cells = self.add_shape.rank, self.add_cells
        mask = 0
        for combo in product(*pools):
            mask |= cells[rank[msort(combo)]]
        return SETS[mask]

    def hyperadd_iterated(self, args: Sequence[int]) -> frozenset:
        """Left-nested fold of the hyperaddition over l(m-1)+1 arguments."""
        t = len(args)
        _check_length(t, self.m, "hyperaddition")
        self._check_args(args, t)
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
        if min(args) < 0 or max(args) >= len(self.labels):
            self._check_args(args, t)  # raises for the first foreign element
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
            n = self.n
            _check_length(t, n, "multiplication")
            head, prev = table_shape(self.size, t - n + 1).rank, self.product_table(t - n + 1)
            cells, shape = self.mul_cells, self.mul_shape
            tables[t] = tuple(
                cells[shape.ext[shape.rest_rank[key[1 - n :]]][prev[head[key[: 1 - n]]]]]
                for key in table_shape(self.size, t).keys
            )
        return tables[t]

    @cached_property
    def lattice(self) -> IdealLattice:
        """``enumerate_hyperideals`` of the structure; kept unless it raises."""
        from .ideals import enumerate_hyperideals  # ideals imports core

        return enumerate_hyperideals(self)

    @cached_property
    def one(self) -> Optional[int]:
        """The scalar identity of the multiplication, None unless exactly one
        element acts as one."""
        ones = self.detect_identities()
        return ones[0] if len(ones) == 1 else None

    def detect_identities(self) -> tuple[int, ...]:
        """Elements acting as scalar identity of the multiplication."""
        cells = self.mul_cells
        found = []
        for e in self.carrier:
            row = self.mul_row((e,) * (self.n - 1))
            if all(cells[row[x]] == x for x in self.carrier):
                found.append(e)
        return tuple(found)

    def add_inverse(self, x: int) -> Optional[int]:
        """The unique y with zero in x+y+0+..+0, or None if not unique."""
        if not (0 <= x < self.size):
            raise ForeignElementError(f"element {x} outside carrier")
        cands = self._inverse_table[x]
        return cands[0] if len(cands) == 1 else None

    @cached_property
    def _inverse_table(self) -> tuple[tuple[int, ...], ...]:
        return inverse_candidates(self.size, self.m, self.zero, self.add_cells)


def _check_length(t: int, arity: int, what: str) -> None:
    """ArityError unless t = l(arity-1)+1 for some l >= 0."""
    if t < 1 or (t - 1) % (arity - 1) != 0:
        raise ArityError(f"iterated {what} needs l*{arity - 1}+1 arguments, got {t}")


def inverse_candidates(size: int, m: int, zero: int, cells: Sequence[int]) -> tuple[tuple, ...]:
    """For each x, every y with zero in x+y+0+..+0, ascending, over bare
    hyperaddition cells of shape (size, m); only the cells of the keys
    (x, y, 0, .., 0) are read."""
    bit = 1 << zero
    return tuple(
        tuple([y for y, r in enumerate(row) if cells[r] & bit]) for row in _pair_rows(size, m, zero)
    )


@lru_cache(maxsize=128)
def _pair_rows(size: int, m: int, zero: int) -> tuple:
    """Per x, the ``ext`` row of the (m-1)-multiset (x, zero, .., zero)."""
    shape = table_shape(size, m)
    pad = (zero,) * (m - 2)
    return tuple(shape.ext[shape.rest_rank[msort((x,) + pad)]] for x in range(size))


def is_invertible(S: FiniteStructure, x: int) -> bool:
    return mul_inverse(S, x) is not None


def mul_inverse(S: FiniteStructure, x: int) -> Optional[int]:
    """A witness y with x*y*1*..*1 = 1, or None."""
    if S.one is None:
        raise MissingIdentityError(f"{S.name} has no scalar identity")
    if not (0 <= x < S.size):
        raise ForeignElementError(f"element {x} outside carrier")
    row = S.mul_row(msort((x,) + (S.one,) * (S.n - 2)))
    for y in S.carrier:
        if S.mul_cells[row[y]] == S.one:
            return y
    return None


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

    @property
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


def _guard_size(S: FiniteStructure, size_guard: bool) -> None:
    if not size_guard:
        return
    if S.size > MAX_VERIFY_SIZE or S.m > MAX_VERIFY_ARITY or S.n > MAX_VERIFY_ARITY:
        raise CapExceeded(
            f"{S.name}: size {S.size} arities ({S.m},{S.n}) exceed the exhaustive"
            f" verification guard (size<={MAX_VERIFY_SIZE},"
            f" arity<={MAX_VERIFY_ARITY}); pass size_guard=False to override"
            " (on the command line: verify --allow-large)"
        )


@dataclass(frozen=True)
class Clause:
    """One checked condition, written once for its scan and its replay.

    ``cases(*ctx)`` yields the cases in scan order, one table row each;
    ``violation(*ctx, case)`` gives the witness of the row's first violation
    or None.  ``ctx`` is ``(S,)`` for an axiom, ``(S, members)`` for a
    hyperideal or prime clause and ``(S, Q, trigger, target)`` for the
    J-family drop clause.
    """

    name: str
    cases: Callable[..., Iterable]
    violation: Callable[..., Optional[tuple]]

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


@lru_cache(maxsize=128)
def _neutral_cases(size: int, m: int, zero: int) -> tuple:
    # each case carries the ranks of the row it reads: f(0..0, x) for
    # ("not-neutral", x), f(e..e, x) over x for ("extra-neutral", e)
    shape = table_shape(size, m)
    zero_row = shape.ext[shape.rest_rank[(zero,) * (m - 1)]]
    return tuple(("not-neutral", x, zero_row) for x in range(size)) + tuple(
        ("extra-neutral", e, shape.ext[shape.rest_rank[(e,) * (m - 1)]]) for e in range(size)
    )


def _neutral(S: FiniteStructure, case: tuple) -> Optional[tuple]:
    # ("not-neutral", x): f(0..0, x) must be exactly {x}; ("extra-neutral",
    # e): no element other than zero may act as a scalar neutral
    kind, e, row = case
    cells = S.add_cells
    if kind == "not-neutral":
        return (kind, e) if cells[row[e]] != 1 << e else None
    neutral = e != S.zero and all(cells[row[x]] == 1 << x for x in S.carrier)
    return (kind, e) if neutral else None


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


HYPERGROUP_AXIOMS = (
    Clause("add-neutral", lambda S: _neutral_cases(S.size, S.m, S.zero), _neutral),
    Clause("add-inverses", lambda S: S.carrier, _inverses),
    Clause(
        "add-reversibility",
        lambda S: _reversibility_cases(S.size, S.m, S._inverse_table),
        _reversibility,
    ),
    Clause(
        "add-solvability",
        lambda S: multisets(S.size, S.m - 1),
        lambda S, rest: solvability_violation(S, S.carrier, rest),
    ),
    Clause(
        "add-associativity",
        lambda S: ranked_plan(S.size, 2 * S.m - 1, S.m),
        lambda S, row: add_associativity_violation(S.add_cells, S.add_shape.ext, row),
    ),
)
RING_AXIOMS = (
    Clause(
        "mul-associativity",
        lambda S: ranked_plan(S.size, 2 * S.n - 1, S.n),
        lambda S, row: mul_associativity_violation(S.mul_cells, S.mul_shape.ext, row),
    ),
    Clause(
        "zero-absorbing",
        lambda S: multisets(S.size, S.n - 1),
        lambda S, rest: (rest,) if S.mul_cells[S.mul_row(rest)[S.zero]] != S.zero else None,
    ),
    Clause("distributivity", lambda S: multisets(S.size, S.n - 1), _distributivity),
)
AXIOMS = {c.name: c for c in HYPERGROUP_AXIOMS + RING_AXIOMS}


def _check(clause: Clause, S: FiniteStructure) -> AxiomCheck:
    witness = clause.scan(S)
    return AxiomCheck(clause.name, witness is None, witness)


def _identity_info(S: FiniteStructure) -> AxiomCheck:
    ones = S.detect_identities()
    if len(ones) == 1:
        return AxiomCheck("mul-identity", True, None, f"detected {S.labels[ones[0]]}")
    if not ones:
        return AxiomCheck("mul-identity", True, None, "absent")
    return AxiomCheck("mul-identity", True, None, "ambiguous: " + str(list(ones)))


def verify_canonical_hypergroup(
    S: FiniteStructure, fail_fast: bool = False, size_guard: bool = True
) -> AxiomReport:
    """Check the canonical m-ary hypergroup axioms of the hyperaddition.

    Commutativity holds by multiset keying and is recorded informationally.
    Cheap local axioms run before the associativity sweep so that fail_fast
    enumeration callers exit early.
    """
    _guard_size(S, size_guard)
    checks = [AxiomCheck("add-commutativity", True, None, "by multiset keying")]
    for clause in HYPERGROUP_AXIOMS:
        c = _check(clause, S)
        checks.append(c)
        if fail_fast and not c.passed:
            break
    return AxiomReport(S.name, tuple(checks))


def verify_krasner(S: FiniteStructure, size_guard: bool = True) -> AxiomReport:
    """Full Krasner (m,n)-hyperring verification with witnesses."""
    checks = list(verify_canonical_hypergroup(S, size_guard=size_guard).checks)
    checks.append(AxiomCheck("mul-commutativity", True, None, "by multiset keying"))
    checks.extend(_check(clause, S) for clause in RING_AXIOMS)
    checks.append(_identity_info(S))
    return AxiomReport(S.name, tuple(checks))


def replay_axiom_check(S: FiniteStructure, check: AxiomCheck) -> bool:
    """Re-evaluate a failed check's witness with the axiom's own clause
    (KeyError for a name that has none); True means the violation holds."""
    return not check.passed and AXIOMS[check.axiom].replays(check.witness, S)
