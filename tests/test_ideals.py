"""Hyperideal lattice, radicals, primes, residuals.

The oracles here are deliberately independent of the library internals:
literal tuple-level quantifier loops over raw table lookups.
"""

import dataclasses
import random
from collections import Counter
from itertools import combinations, product

import pytest

from hyperring import (
    FiniteStructure,
    Hyperideal,
    ForeignElementError,
    MissingIdentityError,
    classify,
    enumerate_hyperideals,
    enumerate_structures,
    is_hyperideal,
    is_local,
    is_primary,
    is_prime,
    is_prime_by_subsets,
    jacobson_radical,
    maximal_hyperideals,
    mul_inverse,
    principal_ideal,
    radical_by_powers,
    radical_by_primes,
    replay_ideal_check,
    residual,
    verify_krasner,
)
from hyperring import classifiers, ideals
from hyperring.core import Meter, msort, multisets
from hyperring.ideals import power_exponents


def oracle_is_hyperideal(S, members):
    """Literal clause check over raw tuples (independent of the library)."""
    members = frozenset(members)
    if S.zero not in members:
        return False
    for tup in product(sorted(members), repeat=S.m):
        if not S.add[msort(tup)] <= members:
            return False
    for tup in product(range(S.size), repeat=S.n - 1):
        for i in members:
            if S.mul[msort(tup + (i,))] not in members:
                return False
    for tup in product(sorted(members), repeat=S.m - 1):
        for b in members:
            if not any(b in S.add[msort(tup + (t,))] for t in members):
                return False
    return True


def oracle_lattice(S):
    others = [x for x in S.carrier if x != S.zero]
    found = set()
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            members = frozenset(combo) | {S.zero}
            if oracle_is_hyperideal(S, members):
                found.add(members)
    return found


# -- recognition -------------------------------------------------------------


def test_singleton_zero_and_carrier_are_hyperideals(b33):
    S = b33.structure
    assert is_hyperideal(S, {0}).ok
    assert is_hyperideal(S, set(S.carrier)).ok


def test_01_fails_absorption_with_table_witness(b33):
    S = b33.structure
    check = is_hyperideal(S, {0, 1})
    assert not check.ok and check.clause == "absorbing"
    # g(1,x,1) = x falls outside {0,1}
    assert check.witness == ((1, 2), 1, 2)
    assert replay_ideal_check(S, {0, 1}, check)


def test_0x_fails_solvability(b33):
    # x's additive inverse is 1, which {0,x} does not contain, so
    # 0 in x+x+t has no solution inside the subset
    S = b33.structure
    check = is_hyperideal(S, {0, 2})
    assert not check.ok and check.clause == "solvability"
    assert replay_ideal_check(S, {0, 2}, check)


def test_zero_and_closure_clauses_replay(b24):
    S = b24.structure
    check = is_hyperideal(S, {1})
    assert check.clause == "zero"
    assert replay_ideal_check(S, {1}, check)
    # {0,b} is not closed: b+b = {0,1} leaks out
    b = S.index_of("b")
    check = is_hyperideal(S, {0, b})
    assert check.clause == "add-closed"
    assert replay_ideal_check(S, {0, b}, check)


def _planted_tables(count: int, seed: int):
    """``count`` unverified tables of size 2-4 and arities 2-3, the zero rows
    as random as the rest.  Each plants a random subset P: most keys inside
    P sum into P, often onto all of it, and most products with a factor in P
    land in P, so that some subsets are hyperideals and the others fail
    each of the clauses."""
    rng = random.Random(seed)
    for i in range(count):
        size, m, n = rng.randint(2, 4), rng.randint(2, 3), rng.randint(2, 3)
        planted = [x for x in range(size) if rng.random() < 0.5] or [rng.randrange(size)]

        def some(pool):
            return frozenset(rng.sample(pool, rng.randint(1, len(pool))))

        add = {}
        for key in multisets(size, m):
            if set(key) <= set(planted) and rng.random() < 0.9:
                add[key] = frozenset(planted) if rng.random() < 0.6 else some(planted)
            else:
                add[key] = some(range(size))
        mul = {
            key: rng.choice(planted)
            if set(key) & set(planted) and rng.random() < 0.9
            else rng.randrange(size)
            for key in multisets(size, n)
        }
        labels = tuple(str(x) for x in range(size))
        yield FiniteStructure(f"planted-{i}", m, n, labels, add, mul, 0)


def test_recognition_matches_oracle_everywhere(small_catalog, b24):
    # every subset, with or without zero; the verdict is read off the masks,
    # and a failing subset's clause scan still finds a witness that replays
    clauses = Counter()
    for S in [*(e.structure for e in [*small_catalog, b24]), *_planted_tables(300, 13)]:
        for mask in range(1 << S.size):
            members = frozenset(x for x in S.carrier if mask >> x & 1)
            check = is_hyperideal(S, members)
            assert check.ok == oracle_is_hyperideal(S, members)
            assert check.ok or replay_ideal_check(S, members, check)
            clauses[check.clause] += 1
    assert set(clauses) == {None, "zero", "add-closed", "absorbing", "solvability"}


# -- enumeration -------------------------------------------------------------


def test_lattice_of_builtins(b33, b24):
    lat33 = enumerate_hyperideals(b33.structure)
    assert [sorted(i.members) for i in lat33] == [[0], [0, 1, 2]]
    lat24 = enumerate_hyperideals(b24.structure)
    assert [i.labels() for i in lat24] == [
        ("0",),
        ("0", "1"),
        ("0", "a"),
        ("0", "1", "a", "b"),
    ]


def test_enumeration_matches_oracle(small_catalog, b24):
    zero_not_ideal = 0
    for S in [*(e.structure for e in [*small_catalog, b24]), *_planted_tables(300, 13)]:
        got = {i.members for i in enumerate_hyperideals(S)}
        assert got == oracle_lattice(S)
        zero_not_ideal += frozenset({S.zero}) not in got
    assert zero_not_ideal > 0


def test_scan_and_closure_strategies_agree(small_catalog, b24):
    for entry in [*small_catalog, b24]:
        if not entry.verified:
            continue  # the closure operations lean on canonical axioms
        S = entry.structure
        assert ideals._enumerate_scan(S) == ideals._enumerate_closure(S, Meter("closure"))


def _direct_product(A, B):
    """The componentwise product of two (2,2) structures, element (a, b)
    numbered a * B.size + b."""
    size = A.size * B.size
    add, mul = {}, {}
    for key in multisets(size, 2):
        (a1, b1), (a2, b2) = (divmod(x, B.size) for x in key)
        sums = product(A.hyperadd((a1, a2)), B.hyperadd((b1, b2)))
        add[key] = frozenset(a * B.size + b for a, b in sums)
        mul[key] = A.multiply((a1, a2)) * B.size + B.multiply((b1, b2))
    labels = tuple(f"{a}{b}" for a in A.labels for b in B.labels)
    return FiniteStructure.build(f"{A.name}x{B.name}", 2, 2, labels, add, mul, 0)


def test_closure_lattice_above_the_scan_limit(monkeypatch):
    # 16-element products of identity-bearing (2,2,4) structures: the kept
    # lattice comes from the closure search, and the subset scan agrees
    A, B = [R for R in enumerate_structures(2, 2, 4) if R.one is not None][:2]
    sizes = []
    for S in (_direct_product(A, A), _direct_product(A, B)):
        assert S.size > ideals.SCAN_LIMIT
        with monkeypatch.context() as patch:
            patch.setattr(ideals, "_enumerate_scan", None)  # not taken at this size
            found = {i.members for i in S.lattice}
        assert found == ideals._enumerate_scan(S) == ideals._enumerate_closure(S, Meter("closure"))
        sizes.append(len(found))
    assert sizes == [16, 12]


def test_one_element_structure_lattice():
    from hyperring import enumerate_structures

    S = enumerate_structures(2, 2, 1)[0]
    lat = enumerate_hyperideals(S)
    assert [sorted(i.members) for i in lat] == [[0]]
    assert lat.maximal == ()
    assert sorted(lat.jacobson.members) == [0]
    assert not is_local(S)


def test_enumeration_size_cap(monkeypatch):
    from hyperring import core
    from hyperring.core import CapExceeded, FiniteStructure, multisets

    # 21 elements take the closure search, whose steps count against the
    # work budget; a budget of 100 is passed in the first closures
    add = {key: frozenset({0}) for key in multisets(21, 2)}
    mul = {key: 0 for key in multisets(21, 2)}
    big = FiniteStructure("big", 2, 2, tuple(str(x) for x in range(21)), add, mul, 0)
    monkeypatch.setattr(core, "WORK_BUDGET", 100)
    with pytest.raises(CapExceeded, match="big: hyperideal closure steps: .* budget of 100$"):
        enumerate_hyperideals(big)


def test_a_refused_lattice_is_kept_while_its_budget_stands(monkeypatch):
    from hyperring import core
    from hyperring.core import CapExceeded, FiniteStructure, multisets

    add = {key: frozenset({0}) for key in multisets(21, 2)}
    mul = {key: 0 for key in multisets(21, 2)}
    big = FiniteStructure("big", 2, 2, tuple(str(x) for x in range(21)), add, mul, 0)
    steps = []
    spend = core.Meter.spend

    def counted(meter, n=1):
        steps.append(n)
        spend(meter, n)

    monkeypatch.setattr(core.Meter, "spend", counted)
    monkeypatch.setattr(core, "WORK_BUDGET", 100)

    def refusal():
        steps.clear()
        with pytest.raises(CapExceeded, match="budget of 100$") as info:
            big.lattice
        return info.value, sum(steps)

    first, spent = refusal()
    assert spent > 100
    # read again under the same budget: the same refusal, no closure step
    assert refusal() == (first, 0)
    assert refusal() == (first, 0)
    # a new budget is a new attempt, and its refusal is the one kept
    monkeypatch.setattr(core, "WORK_BUDGET", 50)
    with pytest.raises(CapExceeded, match="budget of 50$"):
        big.lattice
    monkeypatch.setattr(core, "WORK_BUDGET", 100)
    again, spent = refusal()
    assert again is not first and spent > 100
    assert refusal() == (again, 0)


def test_cyclic_rings_up_to_thirty_verify_and_have_a_member_per_divisor(cyclic):
    # the hyperideals of Z_N are the subgroups dZ_N, one per divisor d of N;
    # every N <= 30 is within the work budget, scan and closure alike
    for N in range(1, 31):
        S = cyclic(N)
        assert verify_krasner(S).ok, N
        divisors = [d for d in range(1, N + 1) if N % d == 0]
        expected = sorted((frozenset(range(0, N, d)) for d in divisors), key=len)
        assert [i.members for i in S.lattice] == expected, N


def test_lattice_membership_accepts_a_hyperideal(cyclic):
    # a member is found by its members, as a Hyperideal or any collection
    S = cyclic(12)
    lat = S.lattice
    for ideal in lat:
        for arg in (ideal, ideal.members, set(ideal.members), sorted(ideal.members)):
            assert arg in lat
            assert lat.by_members(arg) is ideal
    outside = Hyperideal(S, frozenset({0, 1}))
    assert outside not in lat and {0, 1} not in lat
    with pytest.raises(KeyError):
        lat.by_members(outside)


def test_lattice_closed_under_intersection(full_catalog):
    for entry in full_catalog:
        lat = entry.lattice()
        for a in lat:
            for b in lat:
                assert (a.members & b.members) in lat


# -- maximal ideals, jacobson radical, locality -------------------------------


def test_builtin33_maximal_and_jacobson(b33):
    S = b33.structure
    assert [sorted(m.members) for m in maximal_hyperideals(S)] == [[0]]
    assert sorted(jacobson_radical(S).members) == [0]
    assert is_local(S)


def test_builtin24_two_maximal_ideals(b24):
    S = b24.structure
    lat = enumerate_hyperideals(S)
    assert [i.labels() for i in lat.maximal] == [("0", "1"), ("0", "a")]
    assert lat.jacobson.labels() == ("0",)
    assert not is_local(S)


def test_jacobson_is_intersection_of_maximal(full_catalog):
    for entry in full_catalog:
        lat = entry.lattice()
        maxi = lat.maximal
        if not maxi:
            assert lat.jacobson.members == frozenset(entry.structure.carrier)
            continue
        inter = frozenset(entry.structure.carrier)
        for m in maxi:
            inter &= m.members
        assert lat.jacobson.members == inter


# -- primality ---------------------------------------------------------------


def oracle_is_prime(S, members):
    members = frozenset(members)
    for tup in product(range(S.size), repeat=S.n):
        if S.mul[msort(tup)] in members and not any(t in members for t in tup):
            return False
    return True


def test_prime_verdicts_on_builtins(b33, b24):
    S = b33.structure
    assert is_prime(S, {0})
    T = b24.structure
    lat = enumerate_hyperideals(T)
    assert [i.labels() for i in lat.primes] == [("0", "1")]
    # products of four elements of {a,b} give a, so neither {0} nor {0,a}
    # can be prime
    assert not is_prime(T, {0})
    assert not is_prime(T, frozenset({0, 2}))


def test_prime_matches_oracle_and_subset_variant(full_catalog):
    for entry in full_catalog:
        S = entry.structure
        lat = entry.lattice()
        for ideal in lat.proper():
            element = is_prime(S, ideal.members)
            assert element == oracle_is_prime(S, ideal.members)
            assert element == is_prime_by_subsets(S, ideal.members)


def test_prime_rejects_whole_carrier(b33):
    with pytest.raises(ValueError):
        is_prime(b33.structure, set(b33.structure.carrier))


# -- radicals ----------------------------------------------------------------


def test_power_exponents_shape(b33, b24):
    # n=3: 1, 2, 3, then 5, 7, .. up to size*(n-1)+1 = 7
    assert power_exponents(b33.structure) == [1, 2, 3, 5, 7]
    # n=4: 1..4 then 7, 10, 13 (= 4*3+1)
    assert power_exponents(b24.structure) == [1, 2, 3, 4, 7, 10, 13]


def test_radical_examples(b33):
    S = b33.structure
    assert sorted(radical_by_primes(S, {0}).members) == [0]
    assert sorted(radical_by_powers(S, {0})) == [0]
    top = frozenset(S.carrier)
    assert radical_by_primes(S, top).members == top
    assert radical_by_powers(S, top) == top


def test_radical_contains_ideal(full_catalog):
    for entry in full_catalog:
        S = entry.structure
        lat = entry.lattice()
        for ideal in lat:
            assert ideal.members <= radical_by_primes(S, ideal.members).members


def test_radical_dual_definitions_agree(full_catalog):
    for entry in full_catalog:
        S = entry.structure
        if S.one is None:
            continue
        lat = entry.lattice()
        for ideal in lat:
            assert (
                radical_by_primes(S, ideal.members).members
                == radical_by_powers(S, ideal.members)
            )


def test_radical_by_powers_needs_identity(b24):
    with pytest.raises(MissingIdentityError):
        radical_by_powers(b24.structure, {0})


# -- primary -----------------------------------------------------------------


def test_primes_are_primary(full_catalog):
    for entry in full_catalog:
        S = entry.structure
        if S.one is None:
            continue
        lat = entry.lattice()
        for p in lat.primes:
            verdict, _ = is_primary(S, p.members)
            assert verdict is True


def test_primary_radical_is_prime(full_catalog):
    for entry in full_catalog:
        S = entry.structure
        if S.one is None or not entry.verified:
            continue
        lat = entry.lattice()
        for q in lat.proper():
            verdict, _ = is_primary(S, q.members)
            if verdict:
                rad = radical_by_primes(S, q.members)
                if rad.proper:
                    assert is_prime(S, rad.members)


def test_primary_not_applicable_without_identity(b24):
    verdict, witness = is_primary(b24.structure, {0})
    assert verdict is None and witness is None


# -- residuals ---------------------------------------------------------------


def test_residual_identity_and_zero(b33):
    S = b33.structure
    assert residual(S, {0}, {S.one}) == frozenset({0})
    assert residual(S, {0}, {S.zero}) == frozenset(S.carrier)
    # {y : g(y,x,1) = 0} = {0}
    assert residual(S, {0}, {2}) == frozenset({0})


def test_residual_contains_ideal(full_catalog):
    for entry in full_catalog:
        S = entry.structure
        if S.one is None:
            continue
        lat = entry.lattice()
        for q in lat.proper():
            for x in S.carrier:
                assert q.members <= residual(S, q.members, {x})


def test_residual_requires_identity(b24):
    with pytest.raises(MissingIdentityError):
        residual(b24.structure, {0}, {1})


# -- generated ideals ---------------------------------------------------------


def test_principal_ideals_of_builtin33(b33):
    S = b33.structure
    p0 = principal_ideal(S, 0)
    assert sorted(p0.ideal.members) == [0] and p0.formula_closed
    p1 = principal_ideal(S, 1)
    assert p1.ideal.members == frozenset(S.carrier) and p1.formula_closed
    # the product set {g(r,x,1)} = {0,x} is not itself a hyperideal here
    # (solvability), so the smallest enclosing hyperideal is the carrier
    px = principal_ideal(S, 2)
    assert sorted(px.formula_set) == [0, 2]
    assert not px.formula_closed
    assert px.ideal.members == frozenset(S.carrier)


def test_principal_ideal_is_smallest_containing(full_catalog):
    for entry in full_catalog:
        S = entry.structure
        if S.one is None:
            continue
        lat = entry.lattice()
        for x in S.carrier:
            p = principal_ideal(S, x)
            for ideal in lat:
                # any hyperideal containing the generator swallows the
                # whole generated ideal
                if x in ideal.members:
                    assert p.ideal.members <= ideal.members
                if p.formula_set <= ideal.members:
                    assert p.ideal.members <= ideal.members


def test_principal_formula_closed_on_verified(full_catalog):
    # on every verified catalog structure the plain product set is already
    # a hyperideal (recorded empirical finding, checked to stay true)
    for entry in full_catalog:
        S = entry.structure
        if S.one is None or not entry.verified:
            continue
        for x in S.carrier:
            assert principal_ideal(S, x).formula_closed


def test_principal_ideal_requires_identity(b24):
    with pytest.raises(MissingIdentityError):
        principal_ideal(b24.structure, 1)


def foreign_calls(S, x):
    """(name, call) for every public call that takes a subset or an element,
    each given the foreign element x."""
    lat = S.lattice
    delta = classifiers.identity_expansion(lat)
    pad = [{0}] * (S.m - 1)
    return {
        "hyperadd_subsets": lambda: S.hyperadd_subsets([{x}] + pad),
        "add_inverse": lambda: S.add_inverse(x),
        "mul_inverse": lambda: mul_inverse(S, x),
        "Hyperideal": lambda: Hyperideal(S, frozenset({0, x})),
        "is_hyperideal": lambda: is_hyperideal(S, {0, x}),
        "principal_ideal": lambda: principal_ideal(S, x),
        "prime_witness": lambda: ideals.prime_witness(S, {0, x}),
        "is_prime": lambda: is_prime(S, {0, x}),
        "is_prime_by_subsets": lambda: is_prime_by_subsets(S, {0, x}),
        "radical_by_primes": lambda: radical_by_primes(S, {x}),
        "radical_by_powers": lambda: radical_by_powers(S, {0, x}),
        "element_power": lambda: ideals.element_power(S, x, S.n),
        "is_primary": lambda: is_primary(S, {0, x}),
        "residual Q": lambda: residual(S, {0, x}, {1}),
        "residual T": lambda: residual(S, {0}, {x}),
        "residual T of two": lambda: residual(S, {0}, {1, x}),
        "is_j_hyperideal": lambda: classifiers.is_j_hyperideal(S, {0, x}, lat),
        "is_delta_j": lambda: classifiers.is_delta_j(S, {0, x}, delta, lat),
        "is_delta_primary": lambda: classifiers.is_delta_primary(S, {0, x}, delta, lat),
        "is_absorbing_delta_j": lambda: classifiers.is_absorbing_delta_j(S, {0, x}, delta, 2, lat),
    }


def test_foreign_elements_raise_foreign_element_error(b24, b33):
    # an element outside the carrier, an integer or not, is named, instead of
    # surfacing as a KeyError or TypeError or giving a verdict
    S = b33.structure
    for x in (7, -1, "a"):
        for name, call in foreign_calls(S, x).items():
            with pytest.raises(ForeignElementError, match=f"^element {x} outside carrier$"):
                call()
                pytest.fail(f"{name} accepted {x!r}")
    # the least foreign integer is named, before any non-integer
    with pytest.raises(ForeignElementError, match="^element -1 outside carrier$"):
        is_hyperideal(S, {"a", 0, 9, -1, 3})
    # the prime and radical calls need no identity
    with pytest.raises(ForeignElementError):
        radical_by_primes(b24.structure, {7})
    with pytest.raises(ForeignElementError):
        is_prime(b24.structure, {0, 7})
    # the identity check comes first
    with pytest.raises(MissingIdentityError):
        residual(b24.structure, {0}, {7})
    with pytest.raises(MissingIdentityError):
        principal_ideal(b24.structure, 7)


# -- cached views and passed-in lattices -------------------------------------


def test_lattice_views_are_cached_and_lattices_key_by_identity(b24):
    S = b24.structure
    L = enumerate_hyperideals(S)
    assert L.maximal is L.maximal
    assert L.jacobson is L.jacobson
    assert L.primes is L.primes
    assert L.meet(L.maximal) == L.jacobson.members
    assert L.meet(()) == frozenset(S.carrier)
    assert len({L: 1, enumerate_hyperideals(S): 2}) == 2


def test_default_lattice_calls_build_one_lattice_and_one_registry(monkeypatch):
    # a non-local order-4 (2,2) hyperring with an identity, rebuilt so that
    # nothing is cached on it yet
    T = next(
        R for R in enumerate_structures(2, 2, 4)
        if R.one is not None and len(enumerate_hyperideals(R).maximal) > 1
    )
    proper = [i.members for i in enumerate_hyperideals(T).proper()]
    assert len(proper) >= 3
    S = dataclasses.replace(T)
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        ideals, "enumerate_hyperideals", counting("lattice", ideals.enumerate_hyperideals)
    )
    monkeypatch.setattr(
        classifiers, "standard_registry", counting("registry", classifiers.standard_registry)
    )
    jacobson_radical(S)
    for Q in proper:
        classify(S, Q)
        radical_by_primes(S, Q)
        assert is_primary(S, Q)[0] is not None
    assert not is_local(S)
    for x in S.carrier:
        principal_ideal(S, x)
    assert calls == {"lattice": 1, "registry": 1}


def test_an_empty_lattice_is_not_enumerated_again(monkeypatch):
    # an unverified (2,2) table on {0, 1} with no hyperideal: 0 + 0 = {0, 1}
    add = {(0, 0): frozenset({0, 1}), (0, 1): frozenset({1}), (1, 1): frozenset({1})}
    mul = {(0, 0): 0, (0, 1): 0, (1, 1): 0}
    S = FiniteStructure.build("bare", 2, 2, ("0", "1"), add, mul, 0)
    assert len(S.lattice) == 0

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the kept lattice was enumerated again")

    monkeypatch.setattr("hyperring.ideals.enumerate_hyperideals", no_enumeration)
    assert maximal_hyperideals(S) == ()
    assert not is_local(S)


def test_jacobson_of_a_table_without_hyperideals_is_the_carrier():
    # an unverified (2,2) table on {0, 1} with f = {0} everywhere and
    # g(0, 1) = 1: {0} does not absorb, {0, 1} is not solvable
    add = {key: frozenset({0}) for key in multisets(2, 2)}
    mul = {(0, 0): 0, (0, 1): 1, (1, 1): 0}
    S = FiniteStructure.build("no-ideal", 2, 2, ("0", "1"), add, mul, 0)
    L = enumerate_hyperideals(S)
    assert len(L) == 0 and L.maximal == ()
    assert L.jacobson.members == frozenset(S.carrier)
    assert L.jacobson.parent is S
    assert jacobson_radical(S).labels() == ("0", "1")
