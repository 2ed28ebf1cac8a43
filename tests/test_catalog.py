"""Built-in tables, enumeration, canonical forms and counterexample search."""

import hashlib

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
    _involutions,
    _mul_candidates,
    _parse_predicate,
    _translation_maps,
)
from hyperring.core import (
    CapExceeded,
    AXIOMS,
    FiniteStructure,
    multisets,
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
    # every output of both strategies, byte for byte: tables, names, order
    # and detected identities
    shapes = [(m, n, o) for (m, n) in ((2, 2), (3, 2), (2, 3), (3, 3)) for o in (1, 2, 3)]
    digest = hashlib.sha256()
    structures = [S for s in shapes + [(2, 4, 3), (2, 2, 4)] for S in enumerate_structures(*s)]
    structures += enumerate_structures(2, 2, 3, strategy="raw")
    for S in structures:
        digest.update(export_structure(S).encode())
    assert len(structures) == 269
    assert digest.hexdigest() == (
        "7a9c39996aaed50c8b3e267795e4fa727fe4b391317b558df6d7c8a355df05ef"
    )


@pytest.mark.parametrize("m,n,order", [(2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 4, 3)])
def test_translation_map_filter_matches_distributivity_check(m, n, order):
    # over every (verified hypergroup, associative multiplication) pair, the
    # translation-map filter keeps exactly the pairs the axiom check passes
    labels = tuple(str(i) for i in range(order))
    muls = list(_mul_candidates(order, n))
    paired = [(mul, _translation_maps(order, n, mul)) for mul in muls]
    zero_mul = {k: 0 for k in multisets(order, n)}
    hypergroups = 0
    kept = 0
    for add in _add_candidates(order, m):
        probe = FiniteStructure.build("probe", m, n, labels, add, zero_mul, 0)
        if not verify_canonical_hypergroup(probe, fail_fast=True).ok:
            continue
        hypergroups += 1
        accepted = [id(mul) for mul in _distributive_muls(order, m, add, paired)]
        expected = []
        for mul in muls:
            S = FiniteStructure("pair", m, n, labels, add, mul, 0)
            if AXIOMS["distributivity"].scan(S) is None:
                expected.append(id(mul))
        assert accepted == expected
        kept += len(accepted)
    assert hypergroups > 0 and kept > 0


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
    for m, n, order in ((2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2)):
        orbit = {canonical_key(S) for S in enumerate_structures(m, n, order, strategy="orbit")}
        raw = {canonical_key(S) for S in enumerate_structures(m, n, order, strategy="raw")}
        assert orbit == raw


@pytest.mark.slow
def test_raw_and_orbit_strategies_agree_order3_ternary():
    # the raw product scan is the independent oracle; ~20s per shape
    for m, n in ((3, 2), (3, 3)):
        orbit = {canonical_key(S) for S in enumerate_structures(m, n, 3, strategy="orbit")}
        raw = {canonical_key(S) for S in enumerate_structures(m, n, 3, strategy="raw")}
        assert orbit == raw


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
    with pytest.raises(CapExceeded):
        enumerate_structures(2, 2, 4, strategy="raw")
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
    base = [e.structure.name for e in default_catalog(order4_slice=2)]
    seeded = [e.structure.name for e in default_catalog(order4_slice=2, seed=9)]
    assert len(base) == len(seeded)
    assert base[: len(base) - 2] == seeded[: len(base) - 2]


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
            report = classify(S, ideal.members, registry, 3, lattice)
            assert set(report.verdicts) == set(specs.values())
            for spec, key in specs.items():
                assert runs[spec](S, lattice, registry, ideal.members) is report.verdicts[key]
                compared += 1
    assert compared > 0
