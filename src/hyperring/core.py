"""Finite Krasner (m,n)-hyperrings as explicit operation tables.

A structure lives on a carrier {0, .., size-1} and consists of an m-ary
hyperoperation (the "hyperaddition", returning nonempty element sets) and an
n-ary single-valued operation (the "multiplication").  Both tables are keyed
by sorted tuples (multisets), which makes commutativity hold by construction.

Verification is exhaustive and witness-producing: every failed axiom comes
with a concrete tuple that re-evaluates to a violation via
``replay_axiom_check``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Iterator, Mapping, Optional, Sequence


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
        size = len(self.labels)
        expected = set(multisets(size, arity))
        got = set(table.keys())
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
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

    @property
    def carrier(self) -> range:
        return range(len(self.labels))

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
        cands = self._inverse_candidates(x)
        return cands[0] if len(cands) == 1 else None

    def _inverse_candidates(self, x: int) -> list[int]:
        """Every y with zero in x+y+0+..+0, ascending."""
        pad = (self.zero,) * (self.m - 2)
        return [y for y in self.carrier if self.zero in self.add[msort((x, y) + pad)]]


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


def _check_neutral(S: FiniteStructure) -> AxiomCheck:
    # candidates for a scalar neutral e: x in f(e..e,x) with {x} exactly
    neutrals = [
        e
        for e in S.carrier
        if all(
            S.add[msort((e,) * (S.m - 1) + (x,))] == frozenset({x})
            for x in S.carrier
        )
    ]
    if neutrals == [S.zero]:
        return AxiomCheck("add-neutral", True)
    for x in S.carrier:
        if S.add[msort((S.zero,) * (S.m - 1) + (x,))] != frozenset({x}):
            return AxiomCheck("add-neutral", False, ("not-neutral", x))
    extra = next(e for e in neutrals if e != S.zero)
    return AxiomCheck("add-neutral", False, ("extra-neutral", extra))


def _inverse_map(S: FiniteStructure) -> dict[int, int]:
    inv = {}
    for x in S.carrier:
        cands = S._inverse_candidates(x)
        if len(cands) == 1:
            inv[x] = cands[0]
    return inv


def _check_inverses(S: FiniteStructure) -> AxiomCheck:
    for x in S.carrier:
        cands = S._inverse_candidates(x)
        if not cands:
            return AxiomCheck("add-inverses", False, ("none", x))
        if len(cands) > 1:
            return AxiomCheck("add-inverses", False, ("multiple", x, cands[0], cands[1]))
    return AxiomCheck("add-inverses", True)


def _check_reversibility(S: FiniteStructure) -> AxiomCheck:
    # x in f(a_1..a_m) forces each a_i in f(x, inverses of the others).
    # Instances whose inverses are undefined are already reported by the
    # inverse check, so they are skipped here.
    inv = _inverse_map(S)
    for key, splits in split_plan(S.size, S.m, 1):
        for x in sorted(S.add[key]):
            for (a,), others in splits:
                if not all(o in inv for o in others):
                    continue
                target = S.add[msort((x,) + tuple(inv[o] for o in others))]
                if a not in target:
                    return AxiomCheck("add-reversibility", False, (key, x, a))
    return AxiomCheck("add-reversibility", True)


def _check_solvability(S: FiniteStructure) -> AxiomCheck:
    # b in f(a_1..a_{m-1}, t) must be solvable for t over the carrier
    for rest in multisets(S.size, S.m - 1):
        for b in S.carrier:
            if not any(b in S.add[msort(rest + (t,))] for t in S.carrier):
                return AxiomCheck("add-solvability", False, (rest, b))
    return AxiomCheck("add-solvability", True)


def _add_bracket(S: FiniteStructure, A: Multiset, rest: Multiset) -> frozenset:
    """f(f(A), rest): the union of f(s, rest) over s in f(A)."""
    return frozenset().union(*(S.add[msort((s,) + rest)] for s in S.add[A]))


def _check_add_associativity(S: FiniteStructure) -> AxiomCheck:
    # With multiset-keyed (commutative) tables, m-ary associativity over all
    # (2m-1)-tuples is equivalent to: for every (2m-1)-multiset, the value of
    # f(f(A), rest) does not depend on the chosen m-sub-multiset A.
    for whole, splits in split_plan(S.size, 2 * S.m - 1, S.m):
        first = None
        first_sub = None
        for A, rest in splits:
            value = _add_bracket(S, A, rest)
            if first is None:
                first, first_sub = value, A
            elif value != first:
                return AxiomCheck("add-associativity", False, (whole, first_sub, A))
    return AxiomCheck("add-associativity", True)


def mul_associativity_violation(size: int, n: int, mul: Mapping) -> Optional[tuple]:
    """The first (whole, A, B) where g(g(A), rest) differs between two
    n-sub-multisets A and B of a (2n-1)-multiset, for a bare table ``mul``
    on {0..size-1}; None when the table is associative."""
    for whole, splits in split_plan(size, 2 * n - 1, n):
        first = None
        first_sub = None
        for A, rest in splits:
            value = mul[msort((mul[A],) + rest)]
            if first is None:
                first, first_sub = value, A
            elif value != first:
                return whole, first_sub, A
    return None


def _check_mul_associativity(S: FiniteStructure) -> AxiomCheck:
    witness = mul_associativity_violation(S.size, S.n, S.mul)
    return AxiomCheck("mul-associativity", witness is None, witness)


def _check_distributivity(S: FiniteStructure) -> AxiomCheck:
    # g(a_1..a_{n-1}, f(x_1..x_m)) elementwise must equal
    # f(g(a..x_1), .., g(a..x_m)); position of the sum slot is irrelevant
    # because both tables are multiset-keyed.
    for a in multisets(S.size, S.n - 1):
        for xs in multisets(S.size, S.m):
            lhs = frozenset(S.mul[msort(a + (s,))] for s in S.add[xs])
            prods = tuple(S.mul[msort(a + (x,))] for x in xs)
            rhs = S.add[msort(prods)]
            if lhs != rhs:
                return AxiomCheck("distributivity", False, (a, xs))
    return AxiomCheck("distributivity", True)


def _check_zero_absorbing(S: FiniteStructure) -> AxiomCheck:
    for rest in multisets(S.size, S.n - 1):
        if S.mul[msort((S.zero,) + rest)] != S.zero:
            return AxiomCheck("zero-absorbing", False, (rest,))
    return AxiomCheck("zero-absorbing", True)


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
    steps = (
        _check_neutral,
        _check_inverses,
        _check_reversibility,
        _check_solvability,
        _check_add_associativity,
    )
    for step in steps:
        c = step(S)
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
    steps = (
        _check_mul_associativity,
        _check_zero_absorbing,
        _check_distributivity,
    )
    for step in steps:
        c = step(S)
        checks.append(c)
        if fail_fast and not c.passed:
            return AxiomReport(S.name, tuple(checks))
    checks.append(_identity_info(S))
    return AxiomReport(S.name, tuple(checks))


def replay_axiom_check(S: FiniteStructure, check: AxiomCheck) -> bool:
    """Re-evaluate a failed check's witness; True means the violation holds."""
    if check.passed:
        return False
    w = check.witness
    if check.axiom == "add-neutral":
        kind, e = w
        if kind == "not-neutral":
            return S.add[msort((S.zero,) * (S.m - 1) + (e,))] != frozenset({e})
        return e != S.zero and all(
            S.add[msort((e,) * (S.m - 1) + (x,))] == frozenset({x}) for x in S.carrier
        )
    if check.axiom == "add-inverses":
        return len(S._inverse_candidates(w[1])) != 1
    if check.axiom == "add-reversibility":
        key, x, a = w
        inv = _inverse_map(S)
        others = multiset_minus(tuple(key), (a,))
        target = S.add[msort((x,) + tuple(inv[o] for o in others))]
        return x in S.add[tuple(key)] and a not in target
    if check.axiom == "add-solvability":
        rest, b = w
        return not any(b in S.add[msort(tuple(rest) + (t,))] for t in S.carrier)
    if check.axiom == "add-associativity":
        whole, A, B = (tuple(x) for x in w)
        return _add_bracket(S, A, multiset_minus(whole, A)) != _add_bracket(
            S, B, multiset_minus(whole, B)
        )
    if check.axiom == "mul-associativity":
        whole, A, B = (tuple(x) for x in w)
        va = S.mul[msort((S.mul[A],) + multiset_minus(whole, A))]
        vb = S.mul[msort((S.mul[B],) + multiset_minus(whole, B))]
        return va != vb
    if check.axiom == "distributivity":
        a, xs = (tuple(x) for x in w)
        lhs = frozenset(S.mul[msort(a + (s,))] for s in S.add[xs])
        rhs = S.add[msort(tuple(S.mul[msort(a + (x,))] for x in xs))]
        return lhs != rhs
    if check.axiom == "zero-absorbing":
        (rest,) = w
        return S.mul[msort((S.zero,) + tuple(rest))] != S.zero
    raise ValueError(f"no replay rule for axiom {check.axiom!r}")
