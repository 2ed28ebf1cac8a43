"""Finite Krasner (m,n)-hyperrings as explicit operation tables.

A structure lives on a carrier {0, .., size-1} and consists of an m-ary
hyperoperation (the "hyperaddition", returning nonempty element sets) and an
n-ary single-valued operation (the "multiplication").  Both tables are keyed
by sorted tuples (multisets), which makes commutativity hold by construction.

Verification is exhaustive and witness-producing.  Each checked axiom is one
``Clause``: its cases (table rows, in scan order) and one function that gives
a case's violation witness or None.  The verifiers scan the cases for the
first witness; ``replay_axiom_check`` calls the same function on the
witness's case, so a scan and its replay cannot drift apart.
"""

from __future__ import annotations

from collections import Counter
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


Split = tuple  # (whole, ((sub, remainder), ...))


@lru_cache(maxsize=128)
def split_plan(size: int, total: int, part: int) -> tuple[Split, ...]:
    """Every ``total``-multiset over {0..size-1}, in ``multisets`` order, with
    each of its distinct ``part``-sub-multisets and the remainder, in the
    lexicographic order of ``sub_multisets``.

    The plan depends on the shape only, never on a table, so the exhaustive
    scans that split multisets (associativity, reversibility, the
    (k,n)-absorbing scan) share one copy per shape.  Plans are built on first
    use and the cache is bounded.
    """
    return tuple(
        (whole, tuple((A, multiset_minus(whole, A)) for A in sub_multisets(whole, part)))
        for whole in multisets(size, total)
    )


@lru_cache(maxsize=128)
def _key_set(size: int, arity: int) -> frozenset:
    """The keys of a total table of the given shape."""
    return frozenset(multisets(size, arity))


# Exhaustive verification gets expensive fast; these guards keep desk-scale
# runs honest and are overridable where the caller knows what it is doing.
MAX_VERIFY_SIZE = 8
MAX_VERIFY_ARITY = 4


@dataclass(frozen=True)
class FiniteStructure:
    """Carrier plus hyperaddition/multiplication tables.

    ``add`` maps m-multisets to nonempty frozensets, ``mul`` maps n-multisets
    to single elements.  ``zero`` is the declared additive neutral element;
    ``one`` is the *detected* scalar identity of ``mul`` (None if absent).
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
    one: Optional[int] = None
    _chain_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    carrier: range = field(init=False, repr=False, compare=False, hash=False)

    # -- construction ------------------------------------------------------

    def __post_init__(self) -> None:
        size = len(self.labels)
        object.__setattr__(self, "carrier", range(size))
        if size == 0:
            raise StructureError("empty carrier")
        if len(set(self.labels)) != size:
            raise StructureError("duplicate element labels")
        if self.m < 2 or self.n < 2:
            raise StructureError("arities must be at least 2")
        if not (0 <= self.zero < size):
            raise ForeignElementError("zero outside carrier")
        if self.one is not None and not (0 <= self.one < size):
            raise ForeignElementError("one outside carrier")
        self._check_total(self.add, self.m, "hyperaddition")
        self._check_total(self.mul, self.n, "multiplication")
        for key, value in self.add.items():
            if not isinstance(value, frozenset) or not value:
                raise StructureError(f"empty or non-set hyperaddition value at {key}")
            if not all(0 <= v < size for v in value):
                raise ForeignElementError(f"hyperaddition value out of range at {key}")
        for key, value in self.mul.items():
            if not (0 <= value < size):
                raise ForeignElementError(f"multiplication value out of range at {key}")

    def _check_total(self, table: Mapping, arity: int, what: str) -> None:
        expected = _key_set(len(self.labels), arity)
        if table.keys() != expected:
            missing = sorted(expected - table.keys())
            extra = sorted(table.keys() - expected)
            if missing:
                raise StructureError(f"{what} table missing entry {missing[0]}")
            raise StructureError(f"{what} table has foreign key {extra[0]}")

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
        """Construct and auto-detect the scalar identity of ``mul``.

        A declared identity that contradicts detection is an error; the
        detected value always wins so downstream predicates stay honest.
        """
        S = cls(name, m, n, tuple(labels), dict(add), dict(mul), zero, None)
        ones = S.detect_identities()
        one = ones[0] if len(ones) == 1 else None
        if declared_one is not None and declared_one != one:
            raise StructureError(
                f"declared identity {labels[declared_one]!r} does not act as one"
                f" (detected: {'none' if one is None else labels[one]!r})"
            )
        # the detected identity is within the carrier, which __post_init__
        # has already checked, so it is set without a second construction
        object.__setattr__(S, "one", one)
        return S

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

    def label_of(self, x: int) -> str:
        return self.labels[x]

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
        for a in args:
            if not (0 <= a < self.size):
                raise ForeignElementError(f"element {a} outside carrier")

    # -- hyperaddition -----------------------------------------------------

    def hyperadd(self, args: Sequence[int]) -> frozenset:
        self._check_args(args, self.m)
        return self.add[msort(args)]

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
        out: set = set()
        for combo in {msort(c) for c in product(*pools)}:
            out |= self.add[combo]
        return frozenset(out)

    def hyperadd_iterated(self, args: Sequence[int]) -> frozenset:
        """Left-nested fold of the hyperaddition over l(m-1)+1 arguments."""
        t = len(args)
        if t == 1:
            if not (0 <= args[0] < self.size):
                raise ForeignElementError(f"element {args[0]} outside carrier")
            return frozenset({args[0]})
        if (t - 1) % (self.m - 1) != 0:
            raise ArityError(
                f"iterated hyperaddition needs l*{self.m - 1}+1 arguments, got {t}"
            )
        acc = self.hyperadd(args[: self.m])
        for i in range(self.m, t, self.m - 1):
            chunk = args[i : i + self.m - 1]
            acc = self.hyperadd_subsets([acc] + [{c} for c in chunk])
        return acc

    # -- multiplication ----------------------------------------------------

    def multiply(self, args: Sequence[int]) -> int:
        self._check_args(args, self.n)
        return self.mul[msort(args)]

    def multiply_iterated(self, args: Sequence[int]) -> int:
        """Left-nested fold of the multiplication over l(n-1)+1 arguments."""
        args = tuple(args)
        cached = self._chain_cache.get(args)
        if cached is not None:
            return cached
        t = len(args)
        if t == 1:
            if not (0 <= args[0] < self.size):
                raise ForeignElementError(f"element {args[0]} outside carrier")
            return args[0]
        if (t - 1) % (self.n - 1) != 0:
            raise ArityError(
                f"iterated multiplication needs l*{self.n - 1}+1 arguments, got {t}"
            )
        acc = self.mul[msort(args[: self.n])]
        for i in range(self.n, t, self.n - 1):
            acc = self.mul[msort((acc,) + args[i : i + self.n - 1])]
        self._chain_cache[args] = acc
        return acc

    def detect_identities(self) -> tuple[int, ...]:
        """Elements acting as scalar identity of the multiplication."""
        found = []
        for e in self.carrier:
            if all(
                self.mul[msort((e,) * (self.n - 1) + (x,))] == x for x in self.carrier
            ):
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
        # scanned once per structure, kept out of equality and hashing
        return inverse_candidates(self.size, self.m, self.zero, self.add)


def inverse_candidates(size: int, m: int, zero: int, add: Mapping) -> tuple[tuple, ...]:
    """For each x, every y with zero in x+y+0+..+0, ascending, over a bare
    hyperaddition table."""
    pad = (zero,) * (m - 2)
    return tuple(
        tuple(y for y in range(size) if zero in add[msort((x, y) + pad)]) for x in range(size)
    )


def is_invertible(S: FiniteStructure, x: int) -> bool:
    return mul_inverse(S, x) is not None


def mul_inverse(S: FiniteStructure, x: int) -> Optional[int]:
    """A witness y with x*y*1*..*1 = 1, or None."""
    if S.one is None:
        raise MissingIdentityError(f"{S.name} has no scalar identity")
    if not (0 <= x < S.size):
        raise ForeignElementError(f"element {x} outside carrier")
    pad = (S.one,) * (S.n - 2)
    for y in S.carrier:
        if S.mul[msort((x, y) + pad)] == S.one:
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


def _neutral(S: FiniteStructure, case: tuple) -> Optional[tuple]:
    # ("not-neutral", x): f(0..0, x) must be exactly {x}; ("extra-neutral",
    # e): no element other than zero may act as a scalar neutral
    kind, e = case
    if kind == "not-neutral":
        return case if S.add[msort((S.zero,) * (S.m - 1) + (e,))] != {e} else None
    neutral = e != S.zero and all(
        S.add[msort((e,) * (S.m - 1) + (x,))] == {x} for x in S.carrier
    )
    return case if neutral else None


def _inverses(S: FiniteStructure, x: int) -> Optional[tuple]:
    cands = S._inverse_table[x]
    if len(cands) == 1:
        return None
    return ("multiple", x, cands[0], cands[1]) if cands else ("none", x)


def _reversibility(S: FiniteStructure, row: Split) -> Optional[tuple]:
    # x in f(a_1..a_m) forces each a_i in f(x, inverses of the others).
    # Instances whose inverses are undefined are already reported by the
    # inverse check, so they are skipped here.
    key, splits = row
    inv = S._inverse_table
    usable = [
        (a, tuple(inv[o][0] for o in others))
        for (a,), others in splits
        if all(len(inv[o]) == 1 for o in others)
    ]
    for x in sorted(S.add[key]):
        for a, inverses in usable:
            if a not in S.add[msort((x,) + inverses)]:
                return key, x, a
    return None


def solvability_violation(S: FiniteStructure, pool, rest: Multiset) -> Optional[tuple]:
    """(rest, b) for the least b in ``pool`` outside f(rest, t) for every t
    in ``pool``, or None: the solvability clause over the carrier, and over a
    subset's members for the hyperideal clause."""
    reached = frozenset().union(*(S.add[msort(rest + (t,))] for t in pool))
    unreached = sorted(frozenset(pool) - reached)
    return (rest, unreached[0]) if unreached else None


def _first_disagreement(row: Split, bracket: Callable) -> Optional[tuple]:
    """(whole, A, B) for the first sub-multiset B of a ``split_plan`` row
    whose ``bracket(B, rest)`` differs from that of the row's first, A."""
    whole, ((first_sub, rest), *others) = row
    first = bracket(first_sub, rest)
    for B, rest in others:
        if bracket(B, rest) != first:
            return whole, first_sub, B
    return None


def _add_associativity(S: FiniteStructure, row: Split) -> Optional[tuple]:
    # With multiset-keyed (commutative) tables, m-ary associativity over all
    # (2m-1)-tuples is equivalent to: for every (2m-1)-multiset, the value of
    # f(f(A), rest), the union of f(s, rest) over s in f(A), does not depend
    # on the chosen m-sub-multiset A.
    return _first_disagreement(
        row, lambda A, rest: frozenset().union(*(S.add[msort((s,) + rest)] for s in S.add[A]))
    )


def mul_associativity_violation(mul: Mapping, row: Split) -> Optional[tuple]:
    """The mul-associativity clause on one ``split_plan`` row of a bare
    table: g(g(A), rest) must not depend on the n-sub-multiset A."""
    return _first_disagreement(row, lambda A, rest: mul[msort((mul[A],) + rest)])


def translation_violation(size: int, m: int, add: Mapping, phi: Sequence[int]):
    """The first m-multiset xs of a bare table ``add`` with phi(f(xs)) other
    than f(phi(xs)), phi a tuple of images; None for an endomorphism of f."""
    for xs in multisets(size, m):
        if frozenset(phi[s] for s in add[xs]) != add[msort(phi[x] for x in xs)]:
            return xs
    return None


def _distributivity(S: FiniteStructure, a: Multiset) -> Optional[tuple]:
    # g(a_1..a_{n-1}, f(x_1..x_m)) elementwise must equal
    # f(g(a..x_1), .., g(a..x_m)): the translation x -> g(a, x) is an
    # endomorphism of f.  The position of the sum slot is irrelevant because
    # both tables are multiset-keyed.
    xs = translation_violation(S.size, S.m, S.add, [S.mul[msort(a + (x,))] for x in S.carrier])
    return None if xs is None else (a, xs)


HYPERGROUP_AXIOMS = (
    Clause(
        "add-neutral", lambda S: product(("not-neutral", "extra-neutral"), S.carrier), _neutral
    ),
    Clause("add-inverses", lambda S: S.carrier, _inverses),
    Clause("add-reversibility", lambda S: split_plan(S.size, S.m, 1), _reversibility),
    Clause(
        "add-solvability",
        lambda S: multisets(S.size, S.m - 1),
        lambda S, rest: solvability_violation(S, S.carrier, rest),
    ),
    Clause(
        "add-associativity", lambda S: split_plan(S.size, 2 * S.m - 1, S.m), _add_associativity
    ),
)
RING_AXIOMS = (
    Clause(
        "mul-associativity",
        lambda S: split_plan(S.size, 2 * S.n - 1, S.n),
        lambda S, row: mul_associativity_violation(S.mul, row),
    ),
    Clause(
        "zero-absorbing",
        lambda S: multisets(S.size, S.n - 1),
        lambda S, rest: (rest,) if S.mul[msort((S.zero,) + rest)] != S.zero else None,
    ),
    Clause("distributivity", lambda S: multisets(S.size, S.n - 1), _distributivity),
)
AXIOMS = {c.name: c for c in HYPERGROUP_AXIOMS + RING_AXIOMS}


def _check(clause: Clause, S: FiniteStructure) -> AxiomCheck:
    witness = clause.scan(S)
    return AxiomCheck(clause.name, witness is None, witness)


def _check_distributivity(S: FiniteStructure) -> AxiomCheck:
    return _check(AXIOMS["distributivity"], S)


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


def verify_krasner(
    S: FiniteStructure, fail_fast: bool = False, size_guard: bool = True
) -> AxiomReport:
    """Full Krasner (m,n)-hyperring verification with witnesses."""
    base = verify_canonical_hypergroup(S, fail_fast=fail_fast, size_guard=size_guard)
    checks = list(base.checks)
    if fail_fast and not base.ok:
        return AxiomReport(S.name, tuple(checks))
    checks.append(AxiomCheck("mul-commutativity", True, None, "by multiset keying"))
    for clause in RING_AXIOMS:
        c = _check(clause, S)
        checks.append(c)
        if fail_fast and not c.passed:
            return AxiomReport(S.name, tuple(checks))
    checks.append(_identity_info(S))
    return AxiomReport(S.name, tuple(checks))


def replay_axiom_check(S: FiniteStructure, check: AxiomCheck) -> bool:
    """Re-evaluate a failed check's witness with the axiom's own clause
    (KeyError for a name that has none); True means the violation holds."""
    return not check.passed and AXIOMS[check.axiom].replays(check.witness, S)
