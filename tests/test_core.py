"""Operation tables, iterated operations and the axiom verifier."""

import dataclasses
import functools
import gc
import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hyperring import (
    ArityError,
    AxiomCheck,
    AxiomReport,
    FiniteStructure,
    ForeignElementError,
    Homomorphism,
    MissingIdentityError,
    StructureError,
    builtin_examples,
    enumerate_hyperideals,
    enumerate_structures,
    export_structure,
    is_hyperideal,
    is_invertible,
    mul_inverse,
    parse_structure,
    prime_witness,
    replay_axiom_check,
    replay_ideal_check,
    verify_canonical_hypergroup,
    verify_krasner,
)
from hyperring import classifiers, core, ideals
from hyperring.core import (
    CapExceeded,
    add_associativity_violation,
    msort,
    mul_associativity_violation,
    multisets,
    plan_splits,
    ranked_plan,
    table_shape,
)


def idx(entry, *labels):
    S = entry.structure
    return tuple(S.index_of(l) for l in labels)


# -- multiset helpers --------------------------------------------------------

# the split plans' reference: each whole's distinct sub-multisets, by
# recursion over its value counts, and their remainders


def sub_multisets(ms: tuple, length: int) -> list[tuple]:
    """Distinct sub-multisets of a sorted tuple, in lexicographic order."""
    vals = sorted(Counter(ms).items())
    out: list[tuple] = []

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


def multiset_minus(ms: tuple, sub: tuple) -> tuple:
    left = Counter(ms)
    left.subtract(Counter(sub))
    if any(c < 0 for c in left.values()):
        raise ValueError(f"{sub} is not a sub-multiset of {ms}")
    return tuple(sorted(left.elements()))


def test_sub_multisets_lex_order():
    assert sub_multisets((1, 1, 2, 2), 2) == [(1, 1), (1, 2), (2, 2)]
    assert sub_multisets((0, 1, 2), 2) == [(0, 1), (0, 2), (1, 2)]
    assert sub_multisets((3,), 1) == [(3,)]


def test_multiset_minus():
    assert multiset_minus((0, 1, 1, 2), (1, 2)) == (0, 1)
    with pytest.raises(ValueError):
        multiset_minus((0, 1), (2,))


def _split_shapes():
    # every (size, total, part) the split scans ask for on carriers up to 4:
    # reversibility (m, 1), associativity (2a-1, a), and the
    # (k,n)-absorbing scan (k(n-1)+1, (k-1)(n-1)+1) for k up to 3
    shapes = set()
    for size in range(1, 5):
        for a in (2, 3, 4):
            shapes.add((size, a, 1))
            shapes.add((size, 2 * a - 1, a))
            for k in (2, 3):
                shapes.add((size, k * (a - 1) + 1, (k - 1) * (a - 1) + 1))
    return sorted(shapes)


@pytest.mark.parametrize("size,total,part", _split_shapes())
def test_split_plan_matches_sub_multisets(size, total, part):
    # the split plan is ``ranked_plan``: each split as (A, rank of A, rank of
    # the remainder), ranked by position in ``multisets`` order
    parts, rests = list(multisets(size, part)), list(multisets(size, total - part))
    expected = [
        (
            whole,
            [
                (A, parts.index(A), rests.index(multiset_minus(whole, A)))
                for A in sub_multisets(whole, part)
            ],
        )
        for whole in multisets(size, total)
    ]
    plan = ranked_plan(size, total, part)
    assert [(whole, list(splits)) for whole, splits in plan] == expected
    assert sum(len(splits) for _, splits in plan) == plan_splits(size, total, part)
    assert ranked_plan(size, total, part) is plan


# -- table evaluation --------------------------------------------------------


def test_hyperadd_table_rows(b33):
    S = b33.structure
    zero, one, x = 0, 1, 2
    assert S.hyperadd((zero, zero, x)) == frozenset({x})
    assert S.hyperadd((one, one, x)) == frozenset({zero, one, x})
    # scalar neutral: 0+0+a = {a} for every a
    for a in S.carrier:
        assert S.hyperadd((zero, zero, a)) == frozenset({a})


def test_hyperadd_commutative_by_keying(b33):
    S = b33.structure
    assert S.hyperadd((1, 2, 0)) == S.hyperadd((0, 1, 2)) == S.hyperadd((2, 0, 1))


def test_hyperadd_errors(b33):
    S = b33.structure
    with pytest.raises(ArityError):
        S.hyperadd((0, 1))
    with pytest.raises(ForeignElementError):
        S.hyperadd((0, 1, 7))


def test_hyperadd_subsets(b33):
    S = b33.structure
    assert S.hyperadd_subsets([{0}, {0}, {2}]) == frozenset({2})
    # neutral sets: B + {0} + {0} = B
    assert S.hyperadd_subsets([{1, 2}, {0}, {0}]) == frozenset({1, 2})
    # union over the product: f(1,0,0) | f(x,0,0) = {1} | {x}
    assert S.hyperadd_subsets([{1, 2}, {0}, {0}]) == S.hyperadd((1, 0, 0)) | S.hyperadd(
        (2, 0, 0)
    )
    with pytest.raises(StructureError):
        S.hyperadd_subsets([set(), {0}, {0}])


def test_hyperadd_iterated_base_cases(b33):
    S = b33.structure
    assert S.hyperadd_iterated((2,)) == frozenset({2})
    # l=1 is the plain table
    assert S.hyperadd_iterated((1, 1, 2)) == S.hyperadd((1, 1, 2))
    # all zeros fold to {0}
    assert S.hyperadd_iterated((0,) * 5) == frozenset({0})
    # m=3: valid lengths are 1, 3, 5, ..
    with pytest.raises(ArityError):
        S.hyperadd_iterated((0, 1))
    assert S.hyperadd_iterated((0, 0, 0, 0, 2)) == frozenset({2})


def test_multiply_rows(b33, b24):
    S = b33.structure
    assert S.multiply((1, 1, 2)) == 2
    for rest in multisets(S.size, 2):
        assert S.multiply((0,) + rest) == 0
    T = b24.structure
    a, b = 2, 3
    assert T.multiply((a, b, a, b)) == a
    assert T.multiply((1, a, b, a)) == 0


def test_multiply_iterated(b33, b24):
    T = b24.structure
    # 4-ary: valid lengths 1, 4, 7, ..
    assert T.multiply_iterated((2,)) == 2
    assert T.multiply_iterated((2, 3, 2, 3)) == 2
    assert T.multiply_iterated((2, 3, 2, 3, 2, 2, 2)) == 2
    assert T.multiply_iterated((2, 3, 2, 3, 1, 2, 2)) == 0
    with pytest.raises(ArityError):
        T.multiply_iterated((2, 3))
    with pytest.raises(ArityError):
        T.multiply_iterated(())
    # foreign and negative elements are rejected before any lookup
    for S, args in (
        (b33.structure, (0, 7, 1)),
        (b33.structure, (0, -1, 1)),
        (T, (2, 3, 2, -1)),
        (T, (2, 3, 2, 3, 2, 2, 4)),
        (T, (-1,)),
    ):
        with pytest.raises(ForeignElementError):
            S.multiply_iterated(args)


def test_multiply_iterated_zero_absorbs(b33, small_catalog):
    for entry in small_catalog:
        S = entry.structure
        t = 2 * (S.n - 1) + 1
        args = (S.zero,) + tuple(range(S.size))[: t - 1]
        if len(args) < t:
            args = args + (S.zero,) * (t - len(args))
        assert S.multiply_iterated(args) == S.zero


def test_identity_detection(b33, b24):
    assert b33.structure.one == 1
    assert b24.structure.one is None
    assert b33.structure.identities == (1,)
    assert b24.structure.identities == ()


def test_identities_are_computed_once(b33):
    # identities, one and the verifier's mul-identity note read the
    # one cached scan
    S = dataclasses.replace(b33.structure)
    assert "identities" not in vars(S)
    note = verify_krasner(S).check("mul-identity").note
    ones = vars(S)["identities"]
    assert (ones, note) == ((1,), "detected 1")
    assert S.identities is ones and S.one == 1 and vars(S)["identities"] is ones


def test_scalar_identity_acts(b33):
    S = b33.structure
    for x in S.carrier:
        assert S.multiply((S.one, S.one, x)) == x


def test_invertibility(b33, b24):
    S = b33.structure
    assert is_invertible(S, 1) and mul_inverse(S, 1) == 1
    assert not is_invertible(S, 0)
    # g(x,y,1) is never 1: x is not invertible
    assert not is_invertible(S, 2)
    with pytest.raises(MissingIdentityError):
        is_invertible(b24.structure, 0)


def test_build_rejects_malformed(b33):
    S = b33.structure
    with pytest.raises(StructureError):
        FiniteStructure.build("bad", 3, 3, ("0", "0", "x"), S.add, S.mul, 0)
    incomplete = dict(S.add)
    incomplete.pop((0, 0, 0))
    with pytest.raises(StructureError):
        FiniteStructure.build("bad", 3, 3, S.labels, incomplete, S.mul, 0)
    empty = dict(S.add)
    empty[(0, 0, 0)] = frozenset()
    with pytest.raises(StructureError):
        FiniteStructure.build("bad", 3, 3, S.labels, empty, S.mul, 0)
    with pytest.raises(StructureError):
        FiniteStructure.build("bad", 3, 3, S.labels, S.add, S.mul, 0, declared_one=2)


def _malformed(S, labels=None, m=3, n=3, zero=0, add=(), mul=()):
    """``FiniteStructure`` on b33's tables with the given changes."""
    labels = S.labels if labels is None else labels
    return FiniteStructure("bad", m, n, labels, {**S.add, **dict(add)}, {**S.mul, **dict(mul)}, zero)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda S: _malformed(S, labels=()), StructureError, "empty carrier"),
        (lambda S: _malformed(S, m=1), StructureError, "arities must be at least 2"),
        (lambda S: _malformed(S, n=1), StructureError, "arities must be at least 2"),
        (lambda S: _malformed(S, zero=3), ForeignElementError, "zero outside carrier"),
        (
            lambda S: _malformed(S, add=[((0, 0, 3), frozenset({0}))]),
            StructureError,
            "hyperaddition table has foreign key (0, 0, 3)",
        ),
        (
            lambda S: _malformed(S, mul=[((0, 0, 3), 0)]),
            StructureError,
            "multiplication table has foreign key (0, 0, 3)",
        ),
        (
            lambda S: _malformed(S, add=[((1, 1, 2), frozenset({0, 3}))]),
            ForeignElementError,
            "hyperaddition value out of range at (1, 1, 2)",
        ),
        (
            lambda S: _malformed(S, mul=[((1, 1, 2), 3)]),
            ForeignElementError,
            "multiplication value out of range at (1, 1, 2)",
        ),
        (lambda S: Homomorphism(S, S, (0, 1)), ValueError, "mapping must be total on the source carrier"),
        (lambda S: Homomorphism(S, S, (0, 1, 3)), ValueError, "mapping lands outside the target carrier"),
    ],
    ids=[
        "empty-carrier",
        "m-below-2",
        "n-below-2",
        "foreign-zero",
        "add-foreign-key",
        "mul-foreign-key",
        "add-value-out-of-range",
        "mul-value-out-of-range",
        "short-mapping",
        "mapping-out-of-range",
    ],
)
def test_constructors_reject_malformed_input(b33, make, error, message):
    with pytest.raises(error) as caught:
        make(b33.structure)
    assert type(caught.value) is error and str(caught.value) == message


def test_build_constructs_the_structure_once(b33, monkeypatch):
    S = b33.structure
    calls = []
    post_init = FiniteStructure.__post_init__

    def counting(self):
        calls.append(self.name)
        post_init(self)

    monkeypatch.setattr(FiniteStructure, "__post_init__", counting)
    T = FiniteStructure.build("again", 3, 3, S.labels, S.add, S.mul, 0, declared_one=S.one)
    assert calls == ["again"]
    assert T.one == S.one is not None


@pytest.mark.parametrize("declared", [7, -1])
def test_build_rejects_a_declared_one_outside_the_carrier(b33, declared):
    S = b33.structure
    with pytest.raises(ForeignElementError, match=f"declared identity {declared} outside"):
        FiniteStructure.build("bad", 3, 3, S.labels, S.add, S.mul, 0, declared_one=declared)


def test_constructor_and_build_agree(b33):
    # the identity is derived from the tables, not passed in, so the plain
    # constructor and build give equal, hash-equal structures
    S = b33.structure
    plain = FiniteStructure("builtin33", 3, 3, S.labels, dict(S.add), dict(S.mul), 0)
    assert [f.name for f in dataclasses.fields(FiniteStructure) if f.init] == [
        "name", "m", "n", "labels", "add", "mul", "zero"
    ]
    assert plain.one == S.one == 1
    assert plain == S and hash(plain) == hash(S)


def test_equal_structures_hash_equal_and_key_a_dict(b24):
    S = b24.structure
    twin = dataclasses.replace(S)
    assert twin == S and hash(twin) == hash(S)
    assert {S: "b24"}[twin] == "b24"


# -- verification ------------------------------------------------------------


def test_builtin24_passes_all_axioms(b24):
    rep = verify_krasner(b24.structure)
    assert rep.ok
    assert verify_canonical_hypergroup(b24.structure).ok
    assert rep.check("mul-identity").note == "absent"


def test_builtin33_fails_exactly_distributivity(b33):
    rep = verify_krasner(b33.structure)
    failed = [c.axiom for c in rep.failed()]
    assert failed == ["distributivity"]
    check = rep.check("distributivity")
    # the sum-set f(0,1,x) contains 0, so multiplying by (1,x) hits 0 on the
    # left while the element-product side f(0,x,x) stays at {x}
    assert check.witness == ((1, 2), (0, 1, 2))
    assert replay_axiom_check(b33.structure, check)
    assert verify_canonical_hypergroup(b33.structure).ok


def _mutate_add(entry, key, value):
    S = entry.structure
    add = dict(S.add)
    add[key] = value
    return FiniteStructure.build(S.name + "-mut", S.m, S.n, S.labels, add, S.mul, 0)


def _mutate_mul(entry, key, value):
    S = entry.structure
    mul = dict(S.mul)
    mul[key] = value
    return FiniteStructure.build(S.name + "-mut", S.m, S.n, S.labels, S.add, mul, 0)


def test_broken_neutral_reported_with_witness(b24):
    # drop 'a' from 0+a
    M = _mutate_add(b24, (0, 2), frozenset({3}))
    rep = verify_canonical_hypergroup(M)
    check = rep.check("add-neutral")
    assert not check.passed
    assert check.witness == ("not-neutral", 2)
    assert replay_axiom_check(M, check)


def test_broken_absorption_reported_with_witness(b24):
    M = _mutate_mul(b24, (0, 1, 2, 3), 1)
    rep = verify_krasner(M)
    check = rep.check("zero-absorbing")
    assert not check.passed
    assert replay_axiom_check(M, check)


def test_broken_inverse_uniqueness(b24):
    # 1+1 = {0,1} and making a+1 also contain 0 gives 1 two inverses
    M = _mutate_add(b24, (1, 2), frozenset({0, 3}))
    rep = verify_canonical_hypergroup(M)
    check = rep.check("add-inverses")
    assert not check.passed
    assert check.witness[0] == "multiple"
    assert replay_axiom_check(M, check)


def test_broken_associativity_witness_replays(b24):
    M = _mutate_add(b24, (2, 3), frozenset({2}))
    rep = verify_canonical_hypergroup(M)
    assert not rep.ok
    for check in rep.failed():
        assert replay_axiom_check(M, check)


def test_broken_solvability_witness_replays():
    # 2 is never reachable from 1: b in 1+t has no solution for b=2
    add = {
        (0, 0): frozenset({0}),
        (0, 1): frozenset({1}),
        (0, 2): frozenset({2}),
        (1, 1): frozenset({0}),
        (1, 2): frozenset({1}),
        (2, 2): frozenset({0, 2}),
    }
    mul = {k: 0 for k in multisets(3, 2)}
    M = FiniteStructure.build("unsolvable", 2, 2, ("0", "1", "2"), add, mul, 0)
    rep = verify_canonical_hypergroup(M)
    check = rep.check("add-solvability")
    assert not check.passed
    assert replay_axiom_check(M, check)


def test_verify_is_pure(b33):
    a = json.dumps(verify_krasner(b33.structure).as_dict(), sort_keys=True)
    b = json.dumps(verify_krasner(b33.structure).as_dict(), sort_keys=True)
    assert a == b


# the rows the axiom verdicts read, kept on each ``Shape`` once built
PLAN_MEMBERS = {name for name, v in vars(core.Shape).items() if isinstance(v, functools.cached_property)}


def _fresh_plans() -> None:
    """Clear the shape and split caches, so that a plan built later counts a
    ``ranked_plan`` miss or shows as a member of a new ``Shape``: shapes are
    shared, and one built by an earlier test would hide a build."""
    table_shape.cache_clear()
    ranked_plan.cache_clear()


def _plans_built(S) -> tuple:
    """The plan members on the structure's shapes, and the ``ranked_plan`` misses."""
    members = (vars(S.add_shape).keys() | vars(S.mul_shape).keys()) & PLAN_MEMBERS
    return members, ranked_plan.cache_info().misses


def test_size_guard(monkeypatch):
    _fresh_plans()
    big = FiniteStructure.build(
        "big",
        2,
        2,
        tuple(str(i) for i in range(9)),
        {k: frozenset({max(k)}) if 0 in k else frozenset({0}) for k in multisets(9, 2)},
        {k: 0 for k in multisets(9, 2)},
        0,
    )
    # both associativity plans (405 splits each), the reversibility plan
    # (81) and the distributivity cells (9 maps of 45): 1,296 steps, refused
    # under a budget of 1,000 before any plan is built
    monkeypatch.setattr(core, "WORK_BUDGET", 1000)
    with pytest.raises(CapExceeded, match=r"big: verification plan splits \(.*\): 1,296 steps"):
        verify_krasner(big)
    # the hypergroup plans alone: 486 steps, refused under 400
    monkeypatch.setattr(core, "WORK_BUDGET", 400)
    with pytest.raises(CapExceeded, match=r"big: verification plan splits \(.*\): 486 steps"):
        verify_canonical_hypergroup(big, fail_fast=True)
    assert _plans_built(big) == (set(), 0)
    verify_krasner(big, size_guard=False)


def test_verification_past_the_work_budget_is_refused_before_its_plans():
    # a (4,4) table on 13 elements: 828,100 splits in each associativity
    # plan, as many distributivity cells, and 5,915 reversibility splits
    _fresh_plans()
    keys = list(multisets(13, 4))
    big = FiniteStructure(
        "wide", 4, 4, tuple(map(str, range(13))), dict.fromkeys(keys, frozenset({0})), dict.fromkeys(keys, 0), 0
    )
    with pytest.raises(CapExceeded, match=r"wide: .*\): 2,490,215 steps exceed the work budget of 2,000"):
        verify_krasner(big)
    assert _plans_built(big) == (set(), 0)


# -- every witness replays, on random well-formed tables ----------------------


@st.composite
def table_dicts(draw):
    """Total tables of size <= 3 and arities <= 3, with no axiom imposed, as
    the constructor's (m, n, labels, add, mul) arguments."""
    size = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=2, max_value=3))
    element = st.integers(min_value=0, max_value=size - 1)
    add = {k: frozenset(draw(st.sets(element, min_size=1))) for k in multisets(size, m)}
    mul = {k: draw(element) for k in multisets(size, n)}
    labels = tuple(str(x) for x in range(size))
    return m, n, labels, add, mul


def well_formed_tables():
    return table_dicts().map(lambda t: FiniteStructure.build("random", *t, 0))


@settings(max_examples=200, deadline=None)
@given(S=well_formed_tables())
def test_every_failed_check_replays_and_no_passing_one_does(S):
    for check in verify_krasner(S).checks:
        assert replay_axiom_check(S, check) == (not check.passed)
        if not check.passed:
            # a witness read back from the JSON report replays as well
            back = json.loads(json.dumps(check.as_dict()))["witness"]
            assert replay_axiom_check(S, AxiomCheck(check.axiom, False, back))
    others = [x for x in S.carrier if x != S.zero]
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            members = frozenset(combo) | {S.zero}
            check = is_hyperideal(S, members)
            assert replay_ideal_check(S, members, check) == (not check.ok)


# -- every argument check raises only its documented error --------------------


def _foreign(S, xs):
    """The ``ForeignElementError`` text for xs, naming the least foreign
    integer, else the non-integer; None when xs lies in the carrier."""
    ints = sorted(x for x in xs if isinstance(x, int) and x not in S.carrier)
    named = ints or [x for x in xs if not isinstance(x, int)]
    return named and f"element {named[0]} outside carrier"


def _argument_calls(S, X, T, x):
    """name -> (call, preconditions): every public call that takes a subset or
    an element, and the (error type, message) of each precondition it checks,
    in its order, each None when it holds."""
    lat = S.lattice
    # an expansion defined on every subset, so that it raises no KeyError
    subsets = [frozenset(c) for r in range(S.size + 1) for c in combinations(S.carrier, r)]
    everywhere = classifiers.table_expansion("everywhere", {c: c for c in subsets})
    one = None if S.one is not None else (MissingIdentityError, f"{S.name} has no scalar identity")

    def within(xs):
        return _foreign(S, xs) and (ForeignElementError, _foreign(S, xs))

    proper = within(X) or (len(X) == S.size and (ValueError, core.PROPER_REQUIRED)) or None
    empty_sum = not X and (StructureError, "empty argument set for hyperaddition") or None
    empty_t = not T and (ValueError, "residual requires a nonempty subset") or None
    return {
        "hyperadd_subsets": (
            lambda: S.hyperadd_subsets([X] + [{S.zero}] * (S.m - 1)),
            [within(X), empty_sum],
        ),
        "add_inverse": (lambda: S.add_inverse(x), [within({x})]),
        "mul_inverse": (lambda: mul_inverse(S, x), [one, within({x})]),
        "Hyperideal": (lambda: ideals.Hyperideal(S, X), [within(X)]),
        "is_hyperideal": (lambda: is_hyperideal(S, X), [within(X)]),
        "principal_ideal": (lambda: ideals.principal_ideal(S, x), [one, within({x})]),
        "prime_witness": (lambda: prime_witness(S, X), [proper]),
        "is_prime": (lambda: ideals.is_prime(S, X), [proper]),
        "is_prime_by_subsets": (lambda: ideals.is_prime_by_subsets(S, X), [proper]),
        "radical_by_primes": (lambda: ideals.radical_by_primes(S, X), [within(X)]),
        "radical_by_powers": (lambda: ideals.radical_by_powers(S, X), [one, within(X)]),
        "element_power": (lambda: ideals.element_power(S, x, S.n), [one, within({x})]),
        "is_primary": (lambda: ideals.is_primary(S, X), [proper]),
        "residual": (lambda: ideals.residual(S, X, T), [one, within(X), within(T), empty_t]),
        "is_j_hyperideal": (lambda: classifiers.is_j_hyperideal(S, X, lat), [proper]),
        "is_delta_j": (lambda: classifiers.is_delta_j(S, X, everywhere, lat), [proper]),
        "is_delta_primary": (lambda: classifiers.is_delta_primary(S, X, everywhere, lat), [proper]),
        "is_absorbing_delta_j": (
            lambda: classifiers.is_absorbing_delta_j(S, X, everywhere, 2, lat),
            [proper],
        ),
        "classify": (lambda: classifiers.classify(S, X), [within(X)]),
    }


# the calls that read a radical, which on a table that is not a hyperring
# may lie outside the lattice
RADICAL_KEY_ERROR = {"radical_by_primes", "classify"}


@settings(max_examples=200, deadline=None)
@given(S=well_formed_tables(), data=st.data())
def test_every_argument_check_raises_only_its_documented_error(S, data):
    # any subset of the carrier plus its size, -1 and "a": a call raises the
    # error of its first failing precondition, else returns, or raises
    # CapExceeded or the radical KeyError; never TypeError or StopIteration
    pool = st.sampled_from([*S.carrier, S.size, -1, "a"])
    X, T = data.draw(st.frozensets(pool)), data.draw(st.frozensets(pool))
    x = data.draw(pool)
    for name, (call, checks) in _argument_calls(S, X, T, x).items():
        want = next((c for c in checks if c), None)
        try:
            call()
        except CapExceeded:
            assert want is None, name
        except KeyError:
            assert want is None and name in RADICAL_KEY_ERROR, name
            assert not verify_krasner(S).ok, name
        except Exception as exc:
            assert (type(exc), str(exc)) == want, (name, X, T, x)
        else:
            assert want is None, (name, X, T, x)


@settings(max_examples=200, deadline=None)
@given(S=well_formed_tables())
def test_product_table_is_the_iterated_product_of_each_key(S):
    for t in (1, S.n, 2 * S.n - 1, 3 * S.n - 2):
        table = S.product_table(t)
        assert list(table) == [S.multiply_iterated(key) for key in multisets(S.size, t)]
        assert S.product_table(t) is table


def test_product_table_is_refused_over_the_work_budget(b33):
    # the tables up to length 201 hold about 10^8 key elements; they are
    # counted before any is built, and the refusal names the structure
    steps = sum(core.count_multisets(3, u) * u for u in range(1, 202, 2))
    with pytest.raises(CapExceeded) as refused:
        b33.structure.product_table(201)
    assert str(refused.value) == (
        f"builtin33: product tables: {steps:,} steps exceed the work budget of 2,000,000"
    )
    assert 201 not in b33.structure.mul_memo


def test_product_table_builds_a_long_table_without_recursion():
    # on one element the tables up to length 1,200 stay within the work
    # budget, and each is built from the one before in a loop
    S = FiniteStructure("one", 2, 2, ("0",), {(0, 0): frozenset({0})}, {(0, 0): 0}, 0)
    assert S.product_table(1_200) == (0,)


def test_mul_memo_is_shared_by_structures_with_one_multiplication_table(cyclic, monkeypatch):
    builds = []  # the (size, total, part) of each signature build
    split_ranks = classifiers._split_ranks
    monkeypatch.setattr(classifiers, "_split_ranks", lambda *k: builds.append(k) or split_ranks(*k))
    S = cyclic(7, 3)
    key = (S.size, S.n, S.mul_cells)
    assert key not in core._MulMemo.live  # no other live structure carries the table
    # another name and another hyperaddition over the same multiplication table
    T = dataclasses.replace(S, name="other", add={k: frozenset(range(7)) for k in multisets(7, 2)})
    assert T != S and T.mul_memo is S.mul_memo is core._MulMemo.live[key]
    assert all(T.product_table(t) is S.product_table(t) for t in (3, 5, 7))
    total, part = classifiers.absorbing_arity(3, 2)
    assert classifiers._signatures(S, total, part) is classifiers._signatures(T, total, part)
    assert builds == [(7, total, part)]
    # a refusal on T names T and stores nothing in the memo that S shares
    kept = dict(S.mul_memo)
    with pytest.raises(CapExceeded, match="^other: absorbing signature splits: "):
        classifiers._signatures(T, *classifiers.absorbing_arity(3, 30))
    with pytest.raises(CapExceeded, match="^other: product tables: "):
        T.product_table(21)
    assert S.mul_memo == kept
    # ``_MulMemo.live`` holds the memos weakly: the last structure takes one along
    del S, T
    gc.collect()
    assert key not in core._MulMemo.live


def test_table_memo_is_shared_by_structures_with_equal_tables(b33, cyclic, monkeypatch):
    S = b33.structure
    checks = verify_krasner(S).checks[:-1]
    # another name and other labels over the tables of builtin33: its
    # report reuses S's checks and carries its own name and identity label
    T = dataclasses.replace(S, name="twin", labels=("z", "e", "y"))
    scans = []
    with monkeypatch.context() as patch:
        check = core._check
        patch.setattr(core, "_check", lambda *a: scans.append(a) or check(*a))
        report = verify_krasner(T)
    assert T.table_memo is S.table_memo and scans == []
    assert len(report.checks) == len(checks) + 1
    assert all(a is b for a, b in zip(report.checks, checks))
    assert report.structure == "twin" and report.checks[-1].note == "detected e"
    assert verify_krasner(S).checks[-1].note == "detected 1"
    # equal cells under another zero, or of another shape, key another memo
    add, mul = dict.fromkeys(multisets(2, 2), frozenset({0})), dict.fromkeys(multisets(2, 2), 0)
    zeros = [FiniteStructure("z", 2, 2, ("0", "1"), add, mul, zero) for zero in (0, 1)]
    assert zeros[0].add_cells == zeros[1].add_cells
    assert zeros[0].table_memo is not zeros[1].table_memo
    shapes = []
    for size, arity in ((3, 2), (2, 5)):  # 6 cells in each table
        keys = list(multisets(size, arity))
        add, mul = dict.fromkeys(keys, frozenset({0})), dict.fromkeys(keys, 0)
        shapes.append(FiniteStructure("s", arity, arity, tuple(map(str, range(size))), add, mul, 0))
    assert (shapes[0].add_cells, shapes[0].mul_cells) == (shapes[1].add_cells, shapes[1].mul_cells)
    assert shapes[0].table_memo is not shapes[1].table_memo
    # the member sets are shared, each lattice object is fresh
    fresh = enumerate_hyperideals(T)
    assert fresh is not T.lattice and fresh is not enumerate_hyperideals(T)
    assert [i.members for i in fresh] == [i.members for i in S.lattice]
    assert all(i.parent is T for i in fresh)
    # a lowered budget refuses a twin of a structure verified and searched
    # under the default one (Z_13 is past SCAN_LIMIT, so its lattice is
    # grown by closures), and the twin's partner keeps what it stored
    Z = cyclic(13)
    verify_krasner(Z)
    enumerate_hyperideals(Z)
    kept = Z.table_memo["ideals"]
    W = dataclasses.replace(Z, name="Z13twin")
    key = (13, 2, 2, 0, Z.add_cells, Z.mul_cells)
    assert W.table_memo is Z.table_memo is core._MulMemo.live[key]
    monkeypatch.setattr(core, "WORK_BUDGET", 1000)
    with pytest.raises(CapExceeded, match=r"^Z13twin: verification plan splits \(.*\): 3,718 steps"):
        verify_krasner(W)
    with pytest.raises(CapExceeded, match="^Z13twin: hyperideal closure steps: "):
        enumerate_hyperideals(W)
    assert Z.table_memo["ideals"] is kept
    # ``_MulMemo.live`` holds the memos weakly: the last structure takes one along
    del Z, W
    gc.collect()
    assert key not in core._MulMemo.live
    # a refusal stores no member sets
    U = cyclic(13)
    with pytest.raises(CapExceeded, match="^Z13: hyperideal closure steps: "):
        enumerate_hyperideals(U)
    assert "ideals" not in U.table_memo


# -- the table storage against the input dicts --------------------------------


def _mul_fold(mul, n, args):
    """Left fold of a multiplication dict over l(n-1)+1 arguments."""
    acc = mul[msort(args[:n])]
    for i in range(n, len(args), n - 1):
        acc = mul[msort((acc,) + tuple(args[i : i + n - 1]))]
    return acc


def _add_fold(add, m, args):
    """Left fold of a hyperaddition dict over l(m-1)+1 arguments, each step
    the union of the table over the set reached so far."""
    acc = add[msort(args[:m])]
    for i in range(m, len(args), m - 1):
        rest = tuple(args[i : i + m - 1])
        acc = frozenset().union(*(add[msort((s,) + rest)] for s in acc))
    return acc


@settings(max_examples=200, deadline=None)
@given(tables=table_dicts(), data=st.data())
def test_table_storage_matches_input_dicts(tables, data):
    m, n, labels, add, mul = tables
    S = FiniteStructure.build("random", m, n, labels, add, mul, 0)
    assert S.add == add and dict(S.add) == add and len(S.add) == len(add)
    assert S.mul == mul and dict(S.mul) == mul and len(S.mul) == len(mul)
    for key, value in add.items():
        assert S.hyperadd(key[::-1]) == value
    for key, value in mul.items():
        assert S.multiply(key[::-1]) == value
    element = st.integers(min_value=0, max_value=S.size - 1)
    l = data.draw(st.integers(min_value=1, max_value=3))
    args = tuple(data.draw(st.lists(element, min_size=l * (n - 1) + 1, max_size=l * (n - 1) + 1)))
    assert S.multiply_iterated(args) == _mul_fold(mul, n, args)
    args = tuple(data.draw(st.lists(element, min_size=l * (m - 1) + 1, max_size=l * (m - 1) + 1)))
    assert S.hyperadd_iterated(args) == _add_fold(add, m, args)
    twin = FiniteStructure.build("random", m, n, labels, dict(add), dict(mul), 0)
    assert S == twin and S.one == twin.one
    assert parse_structure(export_structure(S)) == S


def _seeded_tables(count: int, seed: int):
    """``count`` random total tables of size <= 3 and arities <= 3."""
    rng = random.Random(seed)
    for i in range(count):
        size, m, n = rng.randint(1, 3), rng.randint(2, 3), rng.randint(2, 3)
        add = {}
        for key in multisets(size, m):
            mask = rng.randrange(1, 1 << size)
            add[key] = frozenset(x for x in range(size) if mask >> x & 1)
        mul = {key: rng.randrange(size) for key in multisets(size, n)}
        labels = tuple(str(x) for x in range(size))
        yield FiniteStructure.build(f"seeded-{i}", m, n, labels, add, mul, 0)


def reference_associativity_witnesses(S, arity, bracket):
    """Per (2k-1)-multiset, k the arity, in ``multisets`` order: (whole, A,
    B) for its first k-sub-multiset A and the first B whose bracket, read
    off the table through the public operations, differs from A's, or
    None."""
    out = []
    for whole in multisets(S.size, 2 * arity - 1):
        subs = sub_multisets(whole, arity)
        first = bracket(S, subs[0], multiset_minus(whole, subs[0]))
        out.append(
            next(
                (
                    (whole, subs[0], B)
                    for B in subs
                    if bracket(S, B, multiset_minus(whole, B)) != first
                ),
                None,
            )
        )
    return out


def _add_bracket(S, B, rest):
    # f(f(B), rest)
    return S.hyperadd_subsets([S.hyperadd(B)] + [{x} for x in rest])


def _mul_bracket(S, B, rest):
    # g(g(B), rest)
    return S.multiply((S.multiply(B),) + rest)


def test_associativity_witnesses_match_a_literal_reference():
    witnesses = {"add": [], "mul": []}
    for S in _seeded_tables(300, 11):
        for side, arity, shape, cells, violation, bracket in (
            ("add", S.m, S.add_shape, S.add_cells, add_associativity_violation, _add_bracket),
            ("mul", S.n, S.mul_shape, S.mul_cells, mul_associativity_violation, _mul_bracket),
        ):
            found = [
                violation(cells, shape.ext, row)
                for row in ranked_plan(S.size, 2 * arity - 1, arity)
            ]
            assert found == reference_associativity_witnesses(S, arity, bracket)
            witnesses[side] += [(arity, w is None) for w in found]
    # both arities, with rows that hold and rows that fail, on both sides
    for found in witnesses.values():
        assert set(found) == {(2, True), (2, False), (3, True), (3, False)}


# sha256 of the reports and witnesses below, as computed before the tables
# were stored as ranked arrays: any drift in a verdict or a witness fails
PINNED_WITNESS_DIGEST = "25e18a5c7e73d78f79308c1b1bc9474012022aec8da46b3c42821622a782dd68"


def test_reports_and_witnesses_are_pinned():
    digest = hashlib.sha256()
    for S in _seeded_tables(1000, 7):
        digest.update(json.dumps(verify_krasner(S).as_dict()).encode())
        others = [x for x in S.carrier if x != S.zero]
        for r in range(len(others) + 1):
            for combo in combinations(others, r):
                members = frozenset(combo) | {S.zero}
                check = is_hyperideal(S, members)
                rows = [sorted(members), check.ok, check.clause, check.witness]
                if len(members) < S.size:
                    rows.append(prime_witness(S, members))
                digest.update(json.dumps(rows).encode())
    assert digest.hexdigest() == PINNED_WITNESS_DIGEST


# -- plan verdicts against the per-case reference ------------------------------


def reference_verify(S, fail_fast=False, ring=True):
    """The verifier with every clause decided by its own ``Clause.scan``,
    case by case, and the scalar identities read off the ``.mul`` view:
    ``verify_canonical_hypergroup`` (``ring=False``) or ``verify_krasner``
    as the plan verdicts must reproduce them."""
    commutes = "by multiset keying"
    checks = [AxiomCheck("add-commutativity", True, None, commutes)]
    for clause in core.HYPERGROUP_AXIOMS:
        witness = clause.scan(S)
        checks.append(AxiomCheck(clause.name, witness is None, witness))
        if fail_fast and witness is not None:
            return AxiomReport(S.name, tuple(checks))
    if ring:
        checks.append(AxiomCheck("mul-commutativity", True, None, commutes))
        for clause in core.RING_AXIOMS:
            witness = clause.scan(S)
            checks.append(AxiomCheck(clause.name, witness is None, witness))
        pad = S.n - 1
        ones = [e for e in S.carrier if all(S.mul[msort((e,) * pad + (x,))] == x for x in S.carrier)]
        if len(ones) == 1:
            note = f"detected {S.labels[ones[0]]}"
        else:
            note = "ambiguous: " + str(ones) if ones else "absent"
        checks.append(AxiomCheck("mul-identity", True, None, note))
    return AxiomReport(S.name, tuple(checks))


def _perturbed_tables(rng: random.Random, per_structure: int):
    """Each verified structure of the built-ins, (2,2,4), (3,3,3) and
    (2,4,3), then ``per_structure`` copies of it with one cell changed: a
    hyperaddition cell to another nonempty set, or a product to another
    element."""
    verified = [e.structure for e in builtin_examples()]
    for shape in ((2, 2, 4), (3, 3, 3), (2, 4, 3)):
        verified += enumerate_structures(*shape)
    for S in verified:
        yield S
        size = S.size
        for i in range(per_structure):
            add, mul = dict(S.add), dict(S.mul)
            if size == 1 or rng.random() < 0.5:
                key = rng.choice(list(add))
                old = core.mask_of(add[key])
                mask = rng.choice([v for v in range(1, 1 << size) if v != old])
                add[key] = core.SETS[mask]
            else:
                key = rng.choice(list(mul))
                mul[key] = rng.choice([x for x in S.carrier if x != mul[key]])
            yield FiniteStructure(f"{S.name}-p{i}", S.m, S.n, S.labels, add, mul, S.zero)


def _random_tables(rng: random.Random, count: int):
    """``count`` random total tables of size <= 4 and arities <= 4."""
    for i in range(count):
        size, m, n = rng.randint(1, 4), rng.randint(2, 4), rng.randint(2, 4)
        add = {key: core.SETS[rng.randrange(1, 1 << size)] for key in multisets(size, m)}
        mul = {key: rng.randrange(size) for key in multisets(size, n)}
        yield FiniteStructure(f"random-{i}", m, n, tuple(map(str, range(size))), add, mul, 0)


# sha256 of the ``verify_krasner`` reports of the two sets below, the same
# from the per-case reference: a drift in a verdict or a witness fails here
PINNED_PLAN_REPORTS_DIGEST = "30154e832c19c01bc3b0a6bccedb54b10798cc3d263bfa4c2e78887bf0ac3da8"


def test_plan_verdicts_match_the_per_case_reference_and_are_pinned():
    rng = random.Random(25)
    sets = {
        "perturbed": list(_perturbed_tables(rng, 5)),
        "random": list(_random_tables(rng, 600)),
    }
    digest = hashlib.sha256()
    for name, tables in sets.items():
        outcomes = set()
        for S in tables:
            report = verify_krasner(S).as_dict()
            assert report == reference_verify(S).as_dict()
            assert (
                verify_canonical_hypergroup(S).as_dict()
                == reference_verify(S, ring=False).as_dict()
            )
            assert (
                verify_canonical_hypergroup(S, fail_fast=True).as_dict()
                == reference_verify(S, fail_fast=True, ring=False).as_dict()
            )
            outcomes |= {(c["axiom"], c["passed"]) for c in report["checks"]}
            digest.update(json.dumps(report).encode())
        # in each set, every clause both holds and fails somewhere
        assert outcomes >= {(axiom, ok) for axiom in core.AXIOMS for ok in (True, False)}, name
    assert digest.hexdigest() == PINNED_PLAN_REPORTS_DIGEST


# -- iterated folds are bracket-independent on verified structures -----------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hyperadd_iterated_bracket_independent(small_catalog, data):
    verified = [e.structure for e in small_catalog if e.verified]
    S = data.draw(st.sampled_from(verified))
    l = data.draw(st.integers(min_value=1, max_value=3))
    t = l * (S.m - 1) + 1
    args = tuple(
        data.draw(st.integers(min_value=0, max_value=S.size - 1)) for _ in range(t)
    )
    left = S.hyperadd_iterated(args)
    # re-associate: fold the tail first, then feed it to the head
    if l >= 2:
        head, tail = args[: S.m - 1], args[S.m - 1 :]
        inner = S.hyperadd_iterated(tail)
        right = S.hyperadd_subsets([{h} for h in head] + [inner])
        assert left == right
    # and in reversed argument order
    assert left == S.hyperadd_iterated(tuple(reversed(args)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiply_iterated_order_independent(small_catalog, data):
    verified = [e.structure for e in small_catalog if e.verified]
    S = data.draw(st.sampled_from(verified))
    l = data.draw(st.integers(min_value=1, max_value=3))
    t = l * (S.n - 1) + 1
    args = tuple(
        data.draw(st.integers(min_value=0, max_value=S.size - 1)) for _ in range(t)
    )
    assert S.multiply_iterated(args) == S.multiply_iterated(msort(args))
