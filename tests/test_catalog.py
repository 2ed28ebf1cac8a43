"""Built-in tables, enumeration, canonical forms and counterexample search."""

import dataclasses
import hashlib
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hyperring import (
    CatalogEntry,
    builtin_examples,
    canonical_key,
    canonicalize,
    classify,
    default_catalog,
    enumerate_structures,
    search_counterexample,
    verify_krasner,
)
from hyperring.catalog import (
    _add_candidates,
    _distributive_muls,
    _from_key,
    _involutions,
    _least_add,
    _map_masks,
    _membership_orbits,
    _mul_candidates,
    _parse_predicate,
    _relabeled_add,
    _search,
    _zero_fixing_perms,
)
from hyperring.core import (
    BITS,
    AXIOMS,
    FiniteStructure,
    TableView,
    inverse_candidates,
    msort,
    mul_associativity_violation,
    multisets,
    ranked_plan,
    table_shape,
    verify_canonical_hypergroup,
)
from hyperring.fileformat import export_structure


# -- built-in tables -----------------------------------------------------------


def test_builtin33_table_rows(b33):
    S = b33.structure
    one, x = S.index_of("1"), S.index_of("x")
    assert S.hyperadd((one, one, x)) == frozenset(S.carrier)
    assert S.hyperadd((0, 0, x)) == frozenset({x})
    assert S.multiply((one, one, x)) == x
    assert S.multiply((x, x, x)) == x
    assert S.multiply((0, one, x)) == 0
    assert S.one == one


def test_builtin24_table_rows(b24):
    S = b24.structure
    a, b = S.index_of("a"), S.index_of("b")
    one = S.index_of("1")
    # the displayed grid: 1+1 = {0,1}, a+b = {1}, 1+b = {a,b}, b+b = {0,1}
    assert S.hyperadd((one, one)) == frozenset({0, one})
    assert S.hyperadd((a, b)) == frozenset({one})
    assert S.hyperadd((one, b)) == frozenset({a, b})
    assert S.hyperadd((b, b)) == frozenset({0, one})
    # products: four factors inside {a,b} give a, anything else gives 0
    assert S.multiply((a, b, a, b)) == a
    assert S.multiply((one, a, b, a)) == 0
    assert S.multiply((0, a, b, a)) == 0


def test_builtin_claims_attached(b33, b24):
    kinds33 = [c.kind for c in b33.claims]
    assert kinds33.count("j-hyperideal") == 2
    assert "krasner-axioms" in kinds33
    kinds24 = [c.kind for c in b24.claims]
    assert "canonical-hypergroup" in kinds24


def test_entry_equality_ignores_the_computed_lattice_and_registry():
    entry, copy = builtin_examples()[1], builtin_examples()[1]
    assert entry == copy
    entry.lattice()
    assert entry == copy
    entry.registry()
    assert entry == copy and entry.lattice() is entry.lattice()
    assert [f.name for f in dataclasses.fields(CatalogEntry)] == ["structure", "provenance", "claims"]


def test_builtin_verification_verdicts(b33, b24):
    assert not b33.verified  # distributivity fails; stored, not corrected
    assert b24.verified


# -- enumeration ---------------------------------------------------------------


FROZEN_COUNTS = {
    (2, 2): {1: 1, 2: 4, 3: 19},
    (3, 2): {1: 1, 2: 2, 3: 15},
    (2, 3): {1: 1, 2: 4, 3: 24},
    (3, 3): {1: 1, 2: 2, 3: 20},
}


@pytest.mark.parametrize("mn", sorted(FROZEN_COUNTS))
def test_enumeration_counts(mn):
    m, n = mn
    for order, count in FROZEN_COUNTS[mn].items():
        out = enumerate_structures(m, n, order)
        assert len(out) == count
        for S in out:
            assert verify_krasner(S).ok


@pytest.mark.parametrize("m,n,order,count", [(2, 2, 4, 137), (2, 4, 3, 19)])
def test_enumeration_counts_beyond_order3(m, n, order, count):
    out = enumerate_structures(m, n, order)
    assert len(out) == count
    for S in out:
        assert verify_krasner(S).ok


def test_enumeration_exports_are_pinned():
    # every output of the enumerator, then the raw-scan reference's (2,2,3)
    # classes built as the enumerator names them, byte for byte: tables,
    # names, order and detected identities
    shapes = [(m, n, o) for (m, n) in ((2, 2), (3, 2), (2, 3), (3, 3)) for o in (1, 2, 3)]
    digest = hashlib.sha256()
    structures = [S for s in shapes + [(2, 4, 3), (2, 2, 4)] for S in enumerate_structures(*s)]
    labels = ("0", "1", "2")
    structures += [
        _from_key(f"enum-m2n2-o3-{i:03d}", 2, 2, labels, key, 0)
        for i, key in enumerate(reference_pairing_keys(2, 2, 3, "raw"))
    ]
    for S in structures:
        digest.update(export_structure(S).encode())
    assert len(structures) == 269
    assert digest.hexdigest() == (
        "7a9c39996aaed50c8b3e267795e4fa727fe4b391317b558df6d7c8a355df05ef"
    )


def test_enumeration_2_3_4_is_pinned():
    structures = enumerate_structures(2, 3, 4)
    assert len(structures) == 143
    assert sum(S.one is not None for S in structures) == 12
    digest = hashlib.sha256("".join(export_structure(S) for S in structures).encode())
    assert digest.hexdigest() == (
        "e6fadd18f2836749cdd2cde9e14a5a4758fc247393baa0ececd54f0e6cb41212"
    )


def reference_mul_candidates(order, n):
    """The product scan over every value of every cell without a zero
    factor, each table kept if it passes every associativity row."""
    shape = table_shape(order, n)
    free = [r for r, key in enumerate(shape.keys) if 0 not in key]
    plan = ranked_plan(order, 2 * n - 1, n)
    cells = [0] * len(shape.keys)
    for values in product(range(order), repeat=len(free)):
        for r, v in zip(free, values):
            cells[r] = v
        if not any(mul_associativity_violation(cells, shape.ext, row) for row in plan):
            yield TableView(shape, tuple(cells), False)


def reference_add_candidates(order, m):
    """The product scan over every choice of free orbits, leaving out the
    tables with an empty cell."""
    shape = table_shape(order, m)
    for base, free in _membership_orbits(order, m):
        for bits in product((0, 1), repeat=len(free)):
            cells = list(base)
            for bit, orb in zip(bits, free):
                if bit:
                    for r, b in orb:
                        cells[r] |= b
            if 0 in cells:
                continue
            yield TableView(shape, tuple(cells), True)


def search_leaves(cells, levels, checks):
    """The cells at each leaf of ``_search``, and the cells after it."""
    leaves = [tuple(cells) for _ in _search(cells, levels, checks)]
    return leaves, tuple(cells)


def reference_leaves(start, levels, checks):
    """The filtered product scan ``_search`` stands for: every choice of one
    option per level, XORed into a copy of ``start``, kept if no check
    fails on the finished table."""
    leaves = []
    for choice in product(*levels):
        cells = list(start)
        for option in choice:
            for r, bits in option:
                cells[r] ^= bits
        if not any(check(cells) for _, check in checks):
            leaves.append(tuple(cells))
    return leaves


# six cells; cell 5 is set by no level.  Options leave cells alone (the
# empty option), touch one cell or several, and a cell may be touched by
# several levels, so it is final only after the last of them.
SEARCH_START = (1, 0, 2, 0, 4, 7)
SEARCH_LEVELS = [
    ((), ((0, 2),), ((0, 4), (1, 1))),
    (((1, 2),), ((2, 1), (3, 8))),
    ((), ((3, 1),)),
    (((4, 3),), (), ((1, 4), (4, 1))),
]
SEARCH_CHECKS = [
    ({0}, lambda cells: cells[0] == 5),
    ({2, 3}, lambda cells: cells[2] == 3 and cells[3] & 1),
    ({1, 4}, lambda cells: cells[1] == cells[4] - 1),
    ({0, 3}, lambda cells: cells[0] + cells[3] == 12),
    ({5}, lambda cells: cells[5] != 7),
]


def test_search_matches_a_filtered_product():
    cells = list(SEARCH_START)
    leaves, after = search_leaves(cells, SEARCH_LEVELS, SEARCH_CHECKS)
    expected = reference_leaves(SEARCH_START, SEARCH_LEVELS, SEARCH_CHECKS)
    assert leaves == expected
    assert 0 < len(leaves) < len(list(product(*SEARCH_LEVELS)))
    assert after == SEARCH_START


@pytest.mark.parametrize("seed", range(20))
def test_search_matches_a_filtered_product_on_seeded_levels(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 5)
    start = tuple(rng.randrange(4) for _ in range(size))

    def option():
        return tuple((rng.randrange(size), rng.randint(1, 3)) for _ in range(rng.randrange(3)))

    levels = [
        tuple(option() for _ in range(rng.randrange(4))) for _ in range(rng.randrange(5))
    ]

    def check(reads, target):
        return set(reads), lambda cells: sum(cells[r] for r in reads) % 5 == target

    checks = [
        check(rng.sample(range(size), rng.randint(1, size)), rng.randrange(5))
        for _ in range(rng.randrange(4))
    ]
    cells = list(start)
    leaves, after = search_leaves(cells, levels, checks)
    assert leaves == reference_leaves(start, levels, checks)
    assert after == start


def test_search_with_a_failing_check_on_unset_cells_yields_nothing():
    failing = ({5}, lambda cells: cells[5] == 7)
    cells = list(SEARCH_START)
    assert search_leaves(cells, SEARCH_LEVELS, SEARCH_CHECKS + [failing]) == ([], SEARCH_START)
    assert search_leaves(cells, [], [failing]) == ([], SEARCH_START)


def test_search_over_zero_levels_yields_one_leaf():
    cells = list(SEARCH_START)
    assert search_leaves(cells, [], []) == ([SEARCH_START], SEARCH_START)
    assert search_leaves(cells, [], SEARCH_CHECKS) == ([SEARCH_START], SEARCH_START)


@pytest.mark.parametrize(
    "order,n", [(o, 2) for o in (1, 2, 3, 4)] + [(o, n) for n in (3, 4) for o in (1, 2, 3)]
)
def test_mul_search_matches_the_product_scan(order, n):
    assert list(_mul_candidates(order, n)) == list(reference_mul_candidates(order, n))


@pytest.mark.parametrize(
    "order,m,scanned,kept",
    [(3, 2, 15, 15), (3, 3, 272, 15), (4, 2, 878, 390), (2, 4, 5, 2), (3, 4, 9762, 15)],
)
def test_add_search_matches_the_product_scan(order, m, scanned, kept):
    # the search cuts off exactly the scan's tables that fail associativity
    labels = tuple(str(i) for i in range(order))
    zero_mul = {k: 0 for k in multisets(order, 2)}

    def associative(add):
        probe = FiniteStructure.build("probe", m, 2, labels, add, zero_mul, 0)
        return AXIOMS["add-associativity"].scan(probe) is None

    reference = list(reference_add_candidates(order, m))
    expected = [add for add in reference if associative(add)]
    found = list(_add_candidates(order, m))
    assert [add.cells for add in found] == [add.cells for add in expected]
    assert (len(reference), len(found)) == (scanned, kept)


@pytest.mark.parametrize("m,n,order", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 4, 3)])
def test_translation_map_filter_matches_distributivity_check(m, n, order):
    # over every (verified hypergroup, associative multiplication) pair, the
    # translation-map filter keeps exactly the pairs the axiom check passes
    labels = tuple(str(i) for i in range(order))
    muls = list(_mul_candidates(order, n))
    paired = _map_masks(muls)
    zero_mul = {k: 0 for k in multisets(order, n)}
    hypergroups = 0
    kept = 0
    for add in _add_candidates(order, m):
        probe = FiniteStructure.build("probe", m, n, labels, add, zero_mul, 0)
        if not verify_canonical_hypergroup(probe, fail_fast=True).ok:
            continue
        hypergroups += 1
        accepted = [id(mul) for mul in _distributive_muls(add, paired)]
        expected = []
        for mul in muls:
            S = FiniteStructure("pair", m, n, labels, add, mul, 0)
            if AXIOMS["distributivity"].scan(S) is None:
                expected.append(id(mul))
        assert accepted == expected
        kept += len(accepted)
    assert hypergroups > 0 and kept > 0


def raw_add_candidates(order: int, m: int):
    """Plain product scan over all free value assignments, the reference
    for the orbit search.  Zero's neutral row is forced; the
    inverse-uniqueness constraint prunes early."""
    shape = table_shape(order, m)
    forced = {shape.rank[msort((0,) * (m - 1) + (y,))]: 1 << y for y in range(order)}
    inv_ranks = sorted(
        {
            shape.rank[msort((0,) * (m - 2) + (a, b))]
            for a in range(1, order)
            for b in range(1, order)
        }
        - set(forced)
    )
    other_ranks = [r for r in range(len(shape.keys)) if r not in forced and r not in inv_ranks]
    # every nonempty value set, by size and then by its element tuple
    values = sorted(range(1, 1 << order), key=lambda s: (len(BITS[s]), BITS[s]))
    cells = [0] * len(shape.keys)
    for r, mask in forced.items():
        cells[r] = mask
    for inv_vals in product(values, repeat=len(inv_ranks)):
        for r, mask in zip(inv_ranks, inv_vals):
            cells[r] = mask
        # the cells of every key of the form (0, .., 0, x, y) are set now
        if any(len(c) != 1 for c in inverse_candidates(order, m, 0, cells)):
            continue
        for other_vals in product(values, repeat=len(other_ranks)):
            for r, mask in zip(other_ranks, other_vals):
                cells[r] = mask
            yield TableView(shape, tuple(cells), True)


def hypergroups(order, m, strategy="orbit"):
    """The candidate hyperadditions that pass the hypergroup check, from
    the enumerator's orbit search or from the raw scan."""
    labels = tuple(str(i) for i in range(order))
    zero_mul = {k: 0 for k in multisets(order, 2)}
    source = _add_candidates if strategy == "orbit" else raw_add_candidates
    for add in source(order, m):
        probe = FiniteStructure.build("probe", m, 2, labels, add, zero_mul, 0)
        if verify_canonical_hypergroup(probe, fail_fast=True).ok:
            yield add


def reference_pairing_keys(m, n, order, strategy="orbit"):
    """The pairing before least hyperadditions: every hypergroup with every
    distributive multiplication, each pair keyed by ``canonical_key``;
    the distinct keys, sorted."""
    labels = tuple(str(i) for i in range(order))
    paired = _map_masks(_mul_candidates(order, n))
    keys = set()
    for add in hypergroups(order, m, strategy):
        for mul in _distributive_muls(add, paired):
            keys.add(canonical_key(FiniteStructure("pair", m, n, labels, add, mul, 0)))
    return sorted(keys)


@pytest.mark.parametrize(
    "m,n,order,strategy",
    [(m, n, o, "orbit") for (m, n) in sorted(FROZEN_COUNTS) for o in (1, 2, 3)]
    + [(2, 4, 3, "orbit"), (2, 2, 4, "orbit"), (2, 2, 3, "raw")],
)
def test_least_hyperaddition_pairing_matches_the_full_pairing(m, n, order, strategy):
    # ``strategy`` picks the reference's hyperaddition source
    found = [canonical_key(S) for S in enumerate_structures(m, n, order)]
    assert found == reference_pairing_keys(m, n, order, strategy)


def test_hypergroup_relabeling_classes_are_pinned():
    def classes(order):
        adds = list(hypergroups(order, 2))
        perms = _zero_fixing_perms(order, 0)
        # each class once, by its least cells over every relabeling
        least_cells = {min(_relabeled_add(add.cells, 2, *p) for p in perms) for add in adds}
        kept = [found for found in map(_least_add, adds) if found is not None]
        assert {own for own, _ in kept} == least_cells and len(kept) == len(least_cells)
        # orbit and stabilizer: a class has |perms| / |automorphisms| members
        assert sum(len(perms) // len(autos) for _, autos in kept) == len(adds)
        return len(adds), Counter(len(autos) for _, autos in kept)

    assert classes(4) == (390, {1: 37, 2: 53, 3: 2, 6: 5})
    count, automorphism_counts = classes(3)
    assert (count, sum(automorphism_counts.values())) == (15, 10)


def test_two_element_field_analog_enumerated():
    # among the four (2,2) structures of order 2 sits the one whose
    # hyperaddition is single-valued two-element addition with 1*1 = 1
    found = False
    for S in enumerate_structures(2, 2, 2):
        single = all(len(v) == 1 for v in S.add.values())
        if single and S.add[(1, 1)] == frozenset({0}) and S.mul[(1, 1)] == 1:
            found = True
    assert found


def test_enumerated_structures_are_canonical():
    for S in enumerate_structures(2, 3, 3):
        assert canonical_key(canonicalize(S)) == canonical_key(S)


def test_canonicalize_idempotent():
    for S in enumerate_structures(2, 2, 3)[:6]:
        C = canonicalize(S)
        CC = canonicalize(C)
        assert C.add == CC.add and C.mul == CC.mul


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_key_invariant_under_relabeling(data):
    # relabeling the nonzero elements never changes the canonical key
    from hyperring import FiniteStructure
    from hyperring.core import msort

    pool = enumerate_structures(2, 2, 3) + enumerate_structures(3, 2, 2)
    S = data.draw(st.sampled_from(pool))
    others = [x for x in S.carrier if x != S.zero]
    images = data.draw(st.permutations(others))
    perm = list(range(S.size))
    for src, dst in zip(others, images):
        perm[src] = dst
    add = {
        msort(tuple(perm[i] for i in key)): frozenset(perm[v] for v in value)
        for key, value in S.add.items()
    }
    mul = {
        msort(tuple(perm[i] for i in key)): perm[value]
        for key, value in S.mul.items()
    }
    T = FiniteStructure.build("relabeled", S.m, S.n, S.labels, add, mul, S.zero)
    assert canonical_key(T) == canonical_key(S)


def test_raw_and_orbit_strategies_agree_small():
    # the enumerator against every hypergroup of the raw scan paired with
    # every distributive multiplication, independent of the least-class
    # pairing
    for m, n, order in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2)):
        orbit = [canonical_key(S) for S in enumerate_structures(m, n, order)]
        assert orbit == reference_pairing_keys(m, n, order, "raw")


@pytest.mark.slow
def test_raw_and_orbit_strategies_agree_order3_ternary():
    # the raw product scan is the independent oracle; ~8s per shape
    for m, n in ((3, 2), (3, 3)):
        orbit = [canonical_key(S) for S in enumerate_structures(m, n, 3)]
        assert orbit == reference_pairing_keys(m, n, 3, "raw")


def test_builtin33_not_rediscovered_because_unverified(b33):
    # the built-in fails verification, so exhaustive enumeration of verified
    # (3,3) order-3 structures cannot contain its relabeling class
    keys = {canonical_key(S) for S in enumerate_structures(3, 3, 3)}
    assert canonical_key(b33.structure) not in keys


def test_enumerated_structure_rediscovered():
    # positive control for canonical-form comparison
    S = enumerate_structures(3, 3, 3)[7]
    keys = {canonical_key(T) for T in enumerate_structures(3, 3, 3)}
    assert canonical_key(S) in keys


def test_order_one_structure():
    (S,) = enumerate_structures(3, 3, 1)
    assert S.size == 1 and S.one == 0
    assert verify_krasner(S).ok


def test_involutions_counts():
    assert len(_involutions([])) == 1
    assert len(_involutions([1])) == 1
    assert len(_involutions([1, 2])) == 2
    assert len(_involutions([1, 2, 3])) == 4
    assert len(_involutions([1, 2, 3, 4])) == 10


def test_enumeration_caps():
    with pytest.raises(ValueError):
        enumerate_structures(5, 2, 2)


def test_default_catalog_composition(full_catalog):
    names = [e.structure.name for e in full_catalog]
    assert names.count("builtin33") == 1 and names.count("builtin24") == 1
    assert len(names) == len(set(names))
    assert len(full_catalog) == 100
    by_prov = {}
    for e in full_catalog:
        by_prov.setdefault(e.provenance, 0)
        by_prov[e.provenance] += 1
    assert by_prov == {"builtin": 2, "enumerated": 98}
    # order-4 slice present
    assert sum(1 for e in full_catalog if e.structure.size == 4 and e.provenance == "enumerated") == 4


def test_default_catalog_seed_changes_slice_only():
    base = [e.structure.name for e in default_catalog()]
    seeded = [e.structure.name for e in default_catalog(seed=9)]
    assert len(base) == len(seeded)
    assert base[: len(base) - 4] == seeded[: len(base) - 4]


# -- counterexample search -------------------------------------------------------


def test_search_j_not_always_prime(full_catalog):
    hit = search_counterexample("J => prime", full_catalog)
    assert hit is not None
    assert hit.structure == "enum-m2n2-o3-002"
    assert hit.ideal == ("0",)


def test_search_j_inside_jacobson_has_no_counterexample(full_catalog):
    assert search_counterexample("J => in-jacobson", full_catalog) is None


def test_search_prime_not_always_j(full_catalog):
    # a maximal prime away from the Jacobson radical: prime without J
    hit = search_counterexample("prime => J", full_catalog)
    assert hit is not None
    assert hit.structure == "enum-m2n2-o4-018"
    assert hit.ideal == ("0", "1")


def test_search_maximal_not_always_prime(full_catalog):
    hit = search_counterexample("maximal => prime", full_catalog)
    assert hit is not None and hit.structure == "builtin24"


def test_search_constant_expansion_escapes_jacobson(full_catalog):
    # the finding behind the recorded T16/T18 failures: a deltaR-J
    # hyperideal need not sit inside the Jacobson radical
    hit = search_counterexample("delta-J[deltaR] => in-jacobson", full_catalog)
    assert hit is not None
    assert hit.structure == "enum-m2n2-o4-018"
    hit0 = search_counterexample("delta-J[delta0] => in-jacobson", full_catalog)
    assert hit0 is None


def test_search_with_delta_arguments(small_catalog):
    assert search_counterexample("delta-J[delta0] => delta-J[deltaR]", small_catalog) is None
    assert (
        search_counterexample("delta-J[delta0] => absorbing[delta0,2]", small_catalog)
        is None
    )


def test_search_rejects_bad_specs(small_catalog):
    with pytest.raises(ValueError):
        search_counterexample("J implies prime", small_catalog)
    with pytest.raises(ValueError):
        search_counterexample("bogus => prime", small_catalog)
    with pytest.raises(ValueError):
        search_counterexample("delta-J[nope] => prime", small_catalog)
    # specs are checked before any entry is scanned, so a catalog without
    # proper ideals rejects them too
    one_element = [CatalogEntry(enumerate_structures(2, 2, 1)[0], "enumerated")]
    bad = (
        "bogus => nonsense",
        "J => nonsense[1,2,3]",
        "J[delta0] => prime",
        "prime => delta-J",
        "delta-primary[delta0,2] => prime",
        "delta-J[nope] => prime",
        "absorbing[delta0] => prime",
        "absorbing[nope,2] => prime",
        "absorbing[delta0,1] => prime",
        "absorbing[delta0,x] => prime",
        "absorbing[delta0,2.5] => prime",
    )
    for entries in ([], one_element, small_catalog):
        for spec in bad:
            with pytest.raises(ValueError):
                search_counterexample(spec, entries)


def test_search_and_classify_agree(small_catalog):
    # small_catalog holds builtin24 and builtin33 beside the (2,2) structures
    specs = {"prime": "prime", "primary": "primary", "maximal": "maximal", "J": "J"}
    for d in ("delta0", "delta1", "deltaR"):
        specs[f"delta-J[{d}]"] = f"delta-J[{d}]"
        specs[f"delta-primary[{d}]"] = f"delta-primary[{d}]"
        for k in (2, 3):
            specs[f"absorbing[{d},{k}]"] = f"absorbing[{d},k={k}]"
    runs = {spec: _parse_predicate(spec) for spec in specs}
    compared = 0
    for entry in small_catalog:
        S, lattice, registry = entry.structure, entry.lattice(), entry.registry()
        for ideal in lattice.proper():
            report = classify(S, ideal.members, registry, 3)
            assert set(report.verdicts) == set(specs.values())
            for spec, key in specs.items():
                assert runs[spec](S, lattice, registry, ideal.members) is report.verdicts[key]
                compared += 1
    assert compared > 0
