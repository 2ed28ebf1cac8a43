"""Acceptance suite: one check per criterion, each printing a verdict line.

The criteria audit the built-in structures against their shipped claims.
Claim mismatches are acceptable outcomes exactly when they surface as
structured discrepancy records with replayable witnesses; silent corrections
and crashes are not.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from hyperring import (
    Verdict,
    classify,
    is_absorbing_delta_j,
    is_delta_j,
    is_j_hyperideal,
    radical_by_powers,
    radical_by_primes,
    replay_axiom_check,
    replay_ideal_check,
    replay_witness,
    run_audit,
    verify_canonical_hypergroup,
    verify_krasner,
)
from hyperring.audit import FAIL, PASS, SKIP
from hyperring.ideals import is_hyperideal


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def audit_report(full_catalog):
    return run_audit(full_catalog)


def test_criterion_1_axiom_verification(b33, b24):
    """Axiom sweeps of both built-ins finish fast; clause failures surface
    as structured, replayable records."""
    t0 = time.time()
    rep33 = verify_krasner(b33.structure)
    t33 = time.time() - t0
    t0 = time.time()
    rep24 = verify_canonical_hypergroup(b24.structure)
    t24 = time.time() - t0
    ok = t33 < 1.0 and t24 < 1.0
    ok = ok and rep24.ok  # the (2,4) additive structure passes every axiom
    # the (3,3) builtin fails exactly distributivity; the failure is a
    # structured record whose witness replays to a violation
    failed = rep33.failed()
    ok = ok and [c.axiom for c in failed] == ["distributivity"]
    ok = ok and all(replay_axiom_check(b33.structure, c) for c in failed)
    _verdict(
        1,
        ok,
        f"verify builtin33 in {t33:.3f}s (distributivity discrepancy, witness"
        f" replays), builtin24 hypergroup axioms pass in {t24:.3f}s",
    )


def test_criterion_2_builtin_classification(b33, b24):
    """Classification of the built-in claim subsets; mismatches must be
    discrepancy records with replayable witnesses."""
    t0 = time.time()
    S = b33.structure
    report0 = classify(S, {0}, b33.registry(), 3)
    ok = report0.verdicts["J"] is Verdict.TRUE  # matches the shipped claim
    # {0,x} is claimed a J-hyperideal but is not even a hyperideal: the
    # discrepancy must carry the violated clause and a replayable witness
    check = is_hyperideal(S, {0, 2})
    ok = ok and not check.ok and check.clause == "solvability"
    ok = ok and replay_ideal_check(S, {0, 2}, check)
    report_improper = classify(S, {0, 2}, b33.registry(), 3)
    ok = ok and report_improper.verdicts["J"] is Verdict.IMPROPER
    # the (2,4) builtin has no scalar identity: the claim for {0} reports
    # not-applicable rather than a fabricated boolean
    T = b24.structure
    report24 = classify(T, {0}, b24.registry(), 3)
    ok = ok and report24.verdicts["J"] is Verdict.NOT_APPLICABLE
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _verdict(
        2,
        ok,
        f"claim checks in {elapsed:.3f}s: {{0}} J-true, {{0,x}} discrepancy"
        " (solvability witness replays), no-identity claim marked"
        " not-applicable",
    )


def test_criterion_3_radical_dual_oracle(full_catalog):
    """The two radical definitions agree on every hyperideal of every
    scalar-identity structure in the default catalog."""
    t0 = time.time()
    mismatches = 0
    checked = 0
    for entry in full_catalog:
        S = entry.structure
        if S.one is None:
            continue
        lat = entry.lattice()
        for ideal in lat:
            checked += 1
            if radical_by_primes(S, ideal.members).members != radical_by_powers(
                S, ideal.members
            ):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0 and checked > 0
    _verdict(
        3, ok, f"{checked} ideals, {mismatches} mismatches in {elapsed:.1f}s"
    )


def test_criterion_4_theorem_audit(full_catalog, audit_report):
    """T01-T27 over the default catalog: every FAIL cell ships a witness
    that replays to a violation (the four recorded constant-expansion
    counterexamples); SKIPs carry reasons."""
    from hyperring.audit import replay_cell

    t0 = time.time()
    rep = run_audit(full_catalog)
    elapsed = time.time() - t0
    counts = rep.counts()
    fails = [c for c in rep.cells if c.status == FAIL]
    ok = all(replay_cell(full_catalog, c) for c in fails)
    ok = ok and {(c.structure, c.theorem) for c in fails} == {
        ("enum-m2n2-o4-018", t) for t in ("T16", "T17", "T18", "T19")
    }
    ok = ok and all(c.reason for c in rep.cells if c.status == SKIP)
    ok = ok and {c.theorem for c in rep.cells} == {f"T{i:02d}" for i in range(1, 28)}
    ok = ok and elapsed < 600.0
    _verdict(
        4,
        ok,
        f"{counts[PASS]} pass / {counts[FAIL]} fail (all witnesses replay;"
        f" constant-expansion counterexamples) / {counts[SKIP]} skip"
        f" (all reasoned) in {elapsed:.1f}s",
    )


def test_criterion_5_definitional_coincidences(full_catalog):
    """delta0-J coincides with J everywhere; deltaR trivializes the delta-J
    and absorbing predicates on every proper ideal."""
    exceptions = 0
    checked = 0
    for entry in full_catalog:
        S = entry.structure
        lat = entry.lattice()
        registry = entry.registry()
        for q in lat.proper():
            checked += 1
            if (
                is_delta_j(S, q.members, registry["delta0"], lat).verdict
                is not is_j_hyperideal(S, q.members, lat).verdict
            ):
                exceptions += 1
            if S.one is not None:
                if is_delta_j(S, q.members, registry["deltaR"], lat).verdict is not Verdict.TRUE:
                    exceptions += 1
            for k in (2, 3):
                if (
                    is_absorbing_delta_j(S, q.members, registry["deltaR"], k, lat).verdict
                    is not Verdict.TRUE
                ):
                    exceptions += 1
    ok = exceptions == 0 and checked > 0
    _verdict(5, ok, f"{checked} proper ideals, {exceptions} exceptions")


def test_criterion_6_implication_chain(full_catalog):
    """delta-J forces (2,n)-absorbing delta-J forces (3,n)-absorbing
    delta-J, for every registered expansion."""
    counterexamples = 0
    checked = 0
    for entry in full_catalog:
        S = entry.structure
        lat = entry.lattice()
        for name, delta in entry.registry().items():
            for q in lat.proper():
                dj = is_delta_j(S, q.members, delta, lat).verdict
                a2 = is_absorbing_delta_j(S, q.members, delta, 2, lat).verdict
                a3 = is_absorbing_delta_j(S, q.members, delta, 3, lat).verdict
                checked += 1
                if dj is Verdict.TRUE and a2 is not Verdict.TRUE:
                    counterexamples += 1
                if a2 is Verdict.TRUE and a3 is not Verdict.TRUE:
                    counterexamples += 1
    ok = counterexamples == 0 and checked > 0
    _verdict(6, ok, f"{checked} (ideal, expansion) pairs, {counterexamples} counterexamples")


def test_criterion_7_morphology_transfers(audit_report):
    """The homomorphism/quotient transfer theorems hold over every generated
    fixture with zero unexplained failures."""
    cells = [c for c in audit_report.cells if c.theorem in ("T20", "T21", "T27")]
    fails = [c for c in cells if c.status == FAIL]
    ran = sum(c.checked for c in cells if c.status == PASS)
    ok = not fails and ran > 0
    _verdict(7, ok, f"{ran} transfer instances, {len(fails)} failures")


def test_criterion_8_audit_determinism(full_catalog):
    """Two consecutive audit runs serialize byte-identically."""
    a = run_audit(full_catalog, theorem_ids=["T01", "T09", "T22"]).to_jsonl()
    b = run_audit(full_catalog, theorem_ids=["T01", "T09", "T22"]).to_jsonl()
    ok = a == b
    _verdict(8, ok, f"{len(a)} bytes, identical={ok}")
