"""Theorem registry execution, discrepancy records, report determinism."""

import dataclasses
import hashlib
import json
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hyperring import (
    AuditCell,
    AuditReport,
    CatalogEntry,
    Discrepancy,
    THEOREMS,
    builtin_examples,
    default_catalog,
    enumerate_homomorphisms,
    enumerate_structures,
    identity_hom,
    is_delta_gamma_hom,
    kernel,
    projection_hom,
    replay_axiom_check,
    run_audit,
    table_expansion,
)
from hyperring.audit import (
    FAIL,
    MONO_FIXTURE_MAX_ORDER,
    PASS,
    SKIP,
    StructureContext,
    catalog_hash,
    replay_cell,
)
from hyperring import classifiers, core, ideals
from hyperring.catalog import DEFAULT_ARITIES
from hyperring.classifiers import PREDICATES, Verdict, delta_j_ideal_form, delta_j_mixed_form
from hyperring.ideals import DROP


@pytest.fixture(scope="module")
def audit_report(full_catalog):
    return run_audit(full_catalog)


def test_registry_covers_t01_to_t27():
    assert sorted(THEOREMS) == [f"T{i:02d}" for i in range(1, 28)]
    for t in THEOREMS.values():
        assert t.statement  # human-readable, self-contained


KNOWN_FAILURES = {
    # the constant expansion makes every proper hyperideal trivially
    # delta-J, so on a non-local identity structure (the product of two
    # 2-element fields) the stated equivalences break; the statements hold
    # for the identity expansion on the same structure
    ("enum-m2n2-o4-018", "T16"),
    ("enum-m2n2-o4-018", "T17"),
    ("enum-m2n2-o4-018", "T18"),
    ("enum-m2n2-o4-018", "T19"),
}


def test_audit_over_default_catalog_known_failures_only(full_catalog, audit_report):
    counts = audit_report.counts()
    fails = [c for c in audit_report.cells if c.status == FAIL]
    assert {(c.structure, c.theorem) for c in fails} == KNOWN_FAILURES
    for c in fails:
        assert c.witness["delta"] == "deltaR"
        assert replay_cell(full_catalog, c)
    assert counts[PASS] > 900


def test_every_skip_has_a_reason(audit_report):
    for cell in audit_report.cells:
        if cell.status == SKIP:
            assert cell.reason


def test_a_check_past_the_work_budget_is_skipped_with_its_message(monkeypatch, small_catalog):
    # the entries are verified before the budget is lowered
    entries = [e for e in small_catalog if e.provenance == "enumerated"]
    monkeypatch.setattr(core, "WORK_BUDGET", 5)
    cells = run_audit(entries, ["T06"]).cells
    over = [c for c in cells if "work budget" in c.reason]
    assert over and all(c.status == SKIP and c.checked == 0 for c in over)
    for c in over:
        assert c.reason == f"T06 on {c.structure}: theorem instances: 6 steps exceed the work budget of 5"


@pytest.mark.slow
def test_the_audit_of_z30_skips_only_t06_on_the_budget(cyclic):
    # T06 walks every subset of the 30 elements for each proper hyperideal
    cells = run_audit([CatalogEntry(cyclic(30), "file")]).cells
    over = [c.theorem for c in cells if "work budget" in c.reason]
    assert over == ["T06"]
    assert sum(c.status != SKIP for c in cells) == 25


def test_skip_reasons_for_builtins(audit_report):
    by_structure = {}
    for cell in audit_report.cells:
        by_structure.setdefault(cell.structure, []).append(cell)
    # unverified structure: everything skips, reason names the axiom
    b33_cells = by_structure["builtin33"]
    assert all(c.status == SKIP for c in b33_cells)
    assert all("distributivity" in c.reason for c in b33_cells)
    # identity-less structure: identity-gated theorems skip, absorbing ones run
    b24 = {c.theorem: c for c in by_structure["builtin24"]}
    assert b24["T01"].status == SKIP and "identity" in b24["T01"].reason
    assert b24["T23"].status == PASS
    assert b24["T25"].status == PASS
    # the radical framework assumes a scalar identity, so T24 skips here
    assert b24["T24"].status == SKIP


def test_audit_determinism(full_catalog, audit_report):
    again = run_audit(full_catalog)
    assert again.to_jsonl() == audit_report.to_jsonl()


def test_default_catalog_audit_jsonl_is_pinned(audit_report):
    # any change to a verdict, a witness, a checked count or the record
    # layout of the default audit shows here
    text = audit_report.to_jsonl().encode()
    assert len(text) == 392_619
    assert hashlib.sha256(text).hexdigest().startswith("5d7e809b909c59bb")
    assert audit_report.counts() == {PASS: 944, FAIL: 4, SKIP: 1752}


def test_order_le3_four_arity_audit_is_pinned():
    # the construction: run_audit over CatalogEntry(S, "enumerated") for every
    # S of enumerate_structures(m, n, order), (m, n) in DEFAULT_ARITIES and
    # order 1..3, with no built-ins; it covers the quotient, projection and
    # monomorphism fixtures of every small structure
    entries = [
        CatalogEntry(S, "enumerated")
        for m, n in DEFAULT_ARITIES
        for order in (1, 2, 3)
        for S in enumerate_structures(m, n, order)
    ]
    assert len(entries) == 94
    text = run_audit(entries).to_jsonl().encode()
    assert len(text) == 367_709
    assert hashlib.sha256(text).hexdigest().startswith("9fe83ce4acfe6fdc")


def test_default_audit_builds_each_lattice_and_registry_once(monkeypatch):
    # fixtures and quotients hold structures and read their lattices as
    # S.lattice, so no record or call can rebuild one: building the default
    # catalog enumerates 2 lattices (_representative_slice reads is_local on
    # order-4 structures) and its audit 161 more, with 157 registries
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
    entries = default_catalog()
    assert calls == {"lattice": 2}
    run_audit(entries)
    assert calls == {"lattice": 163, "registry": 157}


def test_replay_reproduces_every_cell(small_catalog):
    for cell in run_audit(small_catalog).cells:
        assert replay_cell(small_catalog, cell), (cell.structure, cell.theorem)


def test_context_computes_each_absorbing_verdict_once(small_catalog, monkeypatch):
    # every row of the predicate table, absorbing included, is evaluated at
    # most once per (lattice, row, Q, delta(Q), k) by one context, whatever
    # expansion names delta(Q)
    seen = []

    def counting(row):
        def evaluate(S, Q, delta, k):
            moved = delta(Q) if delta is not None and Q in S.lattice else None
            seen.append((S.lattice, row.name, frozenset(Q), moved, k))
            return row.evaluate(S, Q, delta, k)

        return evaluate

    for name, row in list(PREDICATES.items()):
        monkeypatch.setitem(PREDICATES, name, dataclasses.replace(row, evaluate=counting(row)))
    entries = [
        e for e in small_catalog
        if e.verified and e.structure.one is not None and e.structure.size == 3
    ]
    assert entries
    for entry in entries:
        seen.clear()
        ctx = StructureContext(entry, small_catalog, k_max=3)
        for check in THEOREMS.values():
            check.run(ctx)
        assert any(key[1] == "absorbing" for key in seen), entry.structure.name
        assert len(seen) == len(set(seen)), entry.structure.name


def _fresh(row, S, Q, delta, k):
    """What the memo of ``StructureContext.verdict`` stands for: the row of
    the predicate table, or the reference form, evaluated afresh."""
    if row in PREDICATES:
        return PREDICATES[row].evaluate(S, Q, delta, k)
    if row == "ideal-form":
        return delta_j_ideal_form(S, Q, delta)
    if row == "mixed-form":
        return delta_j_mixed_form(S, Q, delta)
    assert row == "maximal-drops"
    m_q = S.lattice.meet(m for m in S.lattice.maximal if Q <= m.members)
    return DROP.scan(S, Q, m_q, delta(Q)) is None


def test_memo_answers_equal_fresh_evaluations(small_catalog, full_catalog, monkeypatch):
    # every (row, Q, delta, k) the 27 checks ask of a context: same verdict,
    # witness (naming the expansion asked for) and note as a fresh call.
    # No absorbing verdict of these audits is FALSE; the product of two
    # 2-element fields adds delta-J and delta-primary witnesses that delta0
    # and delta1 share
    asked = []
    verdict = StructureContext.verdict

    def recording(ctx, row, Q, delta=None, k=None, S=None):
        res = verdict(ctx, row, Q, delta, k, S)
        asked.append((row, ctx.S if S is None else S, Q, delta, k, res))
        return res

    monkeypatch.setattr(StructureContext, "verdict", recording)
    run_audit(small_catalog + [e for e in full_catalog if e.structure.name == "enum-m2n2-o4-018"])
    assert {row for row, *_ in asked} == {
        "J", "maximal", "delta-J", "delta-primary", "absorbing",
        "ideal-form", "mixed-form", "maximal-drops",
    }
    names = {}  # the expansions whose names the witnesses of one memo key carry
    for row, S, Q, delta, k, res in asked:
        assert res == _fresh(row, S, Q, delta, k), (S.name, row, sorted(Q), delta and delta.name, k)
        if getattr(res, "witness", None) and delta is not None:
            names.setdefault((S.lattice, row, Q, delta(Q), k), set()).add(res.witness.delta)
    shared = {key[1] for key, found in names.items() if {"delta0", "delta1"} <= found}
    assert shared == {"delta-J", "delta-primary"}


def test_memo_renames_a_witness_found_for_another_expansion(cyclic):
    # in Z_30, delta0 and delta1 agree on the radical ideal {0}, which is not
    # (2,2)-absorbing: 2*3*5 = 0 while 2*3, 2*5 and 3*5 are not 0
    ctx = StructureContext(CatalogEntry(cyclic(30), "file"), [], k_max=3)
    zero, registry = frozenset({0}), ctx.registry
    assert registry["delta0"](zero) == registry["delta1"](zero)
    first = ctx.verdict("absorbing", zero, registry["delta0"], 2)
    hit = ctx.verdict("absorbing", zero, registry["delta1"], 2)
    assert len(ctx._verdicts) == 1
    assert hit.verdict is Verdict.FALSE and hit.witness.args == (2, 3, 5)
    assert (first.witness.delta, hit.witness.delta) == ("delta0", "delta1")
    assert hit == _fresh("absorbing", ctx.S, zero, registry["delta1"], 2)
    assert ctx.verdict("absorbing", zero, registry["delta0"], 2) is first


def test_memo_keeps_no_expansion_for_a_set_outside_the_lattice(cyclic):
    # the memo reads delta(Q) from the expansion's table, which holds exactly
    # the lattice's members: a set outside the lattice is IMPROPER under
    # every expansion and keeps one entry, and a member that a hand-made
    # table misses still raises that expansion's KeyError
    ctx = StructureContext(CatalogEntry(cyclic(6), "file"), [], k_max=3)
    registry, outside, zero = ctx.registry, frozenset({0, 1}), frozenset({0})
    assert outside not in ctx.S.lattice
    for row, k in (("delta-J", None), ("absorbing", 2)):
        first = ctx.verdict(row, outside, registry["delta0"], k)
        assert first.verdict is Verdict.IMPROPER
        assert ctx.verdict(row, outside, registry["deltaR"], k) is first
    assert len(ctx._verdicts) == 2
    partial = table_expansion("partial", {i.members: i.members for i in ctx.S.lattice if i.members != zero})
    for row, k in (("delta-J", None), ("absorbing", 2), ("ideal-form", None), ("mixed-form", None)):
        with pytest.raises(KeyError, match=re.escape("partial is not defined on [0]")):
            ctx.verdict(row, zero, partial, k)
    assert len(ctx._verdicts) == 2


def test_a_refused_lattice_is_tried_once_per_audit(monkeypatch, cyclic):
    # with a budget of 2,000 steps the closure lattice of Z_16 is refused;
    # every cell SKIPs with the one message the first refusal gave, as each
    # cell did when it rebuilt the lattice itself
    entry = CatalogEntry(cyclic(16), "file")
    assert entry.verified  # verified before the budget is lowered
    tries = []
    closure = ideals._enumerate_closure
    monkeypatch.setattr(ideals, "_enumerate_closure", lambda S: tries.append(S) or closure(S))
    monkeypatch.setattr(core, "WORK_BUDGET", 2_000)
    cells = run_audit([entry]).cells
    assert len(tries) == 1
    reason = "Z16: hyperideal closure steps: 2,331 steps exceed the work budget of 2,000"
    assert [c.as_dict() for c in cells] == [
        AuditCell("Z16", tid, SKIP, reason=reason).as_dict() for tid in sorted(THEOREMS)
    ]


def reference_jsonl(report: AuditReport) -> str:
    """The report serialized by the json module, one record a line."""
    counts = report.counts()
    records = [
        {"record": "meta", "version": report.version, "catalog_hash": report.catalog_hash,
         "k_max": report.k_max},
        *({"record": "cell", **c.as_dict()} for c in report.cells),
        *({"record": "discrepancy", **d.as_dict()} for d in report.discrepancies),
        {"record": "summary", "pass": counts[PASS], "fail": counts[FAIL], "skip": counts[SKIP],
         "discrepancies": len(report.discrepancies)},
    ]
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


# names and reasons that need escaping: quotes, backslashes, control
# characters, non-ASCII text, astral code points
TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f/aé€\u2028😀') | st.characters(), max_size=6)
WITNESSES = st.none() | st.dictionaries(
    TEXT,
    st.recursive(
        st.booleans() | st.integers() | TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)
CELLS = st.builds(
    AuditCell,
    structure=TEXT,
    theorem=st.sampled_from(sorted(THEOREMS)) | TEXT,
    status=st.sampled_from([PASS, FAIL, SKIP]),
    checked=st.integers(min_value=0),
    reason=TEXT,
    witness=WITNESSES,
)


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(CELLS, max_size=4), structure=TEXT, witness=WITNESSES)
def test_jsonl_writer_matches_the_json_dumps_reference(cells, structure, witness):
    discrepancy = Discrepancy(structure, {"kind": "hyperideal", "subset": None}, "x", "y", witness)
    report = AuditReport("0.1.0", "0" * 64, 3, cells, [discrepancy])
    assert report.to_jsonl() == reference_jsonl(report)


def test_catalog_hash_stability(full_catalog):
    assert catalog_hash(full_catalog) == catalog_hash(list(reversed(full_catalog)))


def test_summary_text_lists_failures_and_discrepancies(audit_report):
    text = audit_report.summary_text()
    assert "FAIL enum-m2n2-o4-018 T16" in text
    assert "DISCREPANCY builtin33" in text


def test_jsonl_shape(audit_report):
    lines = audit_report.to_jsonl().strip().split("\n")
    meta = json.loads(lines[0])
    assert meta["record"] == "meta" and meta["catalog_hash"]
    summary = json.loads(lines[-1])
    assert summary["record"] == "summary"
    assert summary["fail"] == len(KNOWN_FAILURES)
    kinds = {json.loads(l)["record"] for l in lines}
    assert kinds == {"meta", "cell", "discrepancy", "summary"}


def test_builtin_discrepancies(audit_report):
    recs = sorted(
        (d.structure, d.claim["kind"], tuple(d.claim["subset"] or ()), d.computed)
        for d in audit_report.discrepancies
    )
    assert recs == [
        ("builtin24", "j-hyperideal", ("0",), "not_applicable"),
        ("builtin33", "hyperideal", ("0", "x"), "clause solvability fails"),
        ("builtin33", "j-hyperideal", ("0", "x"), "improper"),
        ("builtin33", "krasner-axioms", (), "distributivity fails"),
    ]


def test_discrepancy_witnesses_replay(audit_report, b33):
    for d in audit_report.discrepancies:
        if d.structure != "builtin33" or d.claim["kind"] != "krasner-axioms":
            continue
        from hyperring.core import AxiomCheck

        w = d.witness
        check = AxiomCheck(
            w["axiom"], False, tuple(tuple(x) for x in w["witness"]), w["note"]
        )
        assert replay_axiom_check(b33.structure, check)


def test_selected_theorems_only(small_catalog):
    rep = run_audit(small_catalog, theorem_ids=["T01", "T22"])
    assert {c.theorem for c in rep.cells} == {"T01", "T22"}


def test_unknown_claim_kind_becomes_discrepancy(b24):
    from hyperring.catalog import CatalogEntry, Claim

    entry = CatalogEntry(b24.structure, "builtin", (Claim("frobnicates"),))
    rep = run_audit([entry], theorem_ids=["T23"])
    assert any(d.computed == "unknown" for d in rep.discrepancies)


def test_unknown_theorem_rejected(small_catalog):
    with pytest.raises(KeyError):
        run_audit(small_catalog, theorem_ids=["T99"])


def test_replaying_a_cell_of_an_unknown_structure_names_it(small_catalog, audit_report):
    cell = dataclasses.replace(audit_report.cells[0], structure="nowhere")
    with pytest.raises(KeyError, match="unknown structure: nowhere"):
        replay_cell(small_catalog, cell)


def test_claims_read_the_entry_report_past_the_work_budget(monkeypatch):
    # the entries are verified before the budget is lowered; a hypergroup
    # claim reads their reports instead of verifying again
    entries = builtin_examples()
    expected = [d.as_dict() for d in run_audit(entries).discrepancies]
    monkeypatch.setattr(core, "WORK_BUDGET", 1)
    assert [d.as_dict() for d in run_audit(entries).discrepancies] == expected


def test_a_hypergroup_claim_names_the_first_failed_hypergroup_check(b33):
    from hyperring.catalog import Claim
    from hyperring.core import verify_canonical_hypergroup

    # builtin33 fails distributivity only, and the hyperaddition with every
    # sum {0, 1} fails add-neutral first
    two = _constant_sums(2, {0, 1})
    for S, computed in ((b33.structure, None), (two, "add-neutral fails")):
        entry = CatalogEntry(S, "builtin", (Claim("canonical-hypergroup"),))
        found = [d for d in run_audit([entry], ["T01"]).discrepancies]
        assert [d.computed for d in found] == ([computed] if computed else [])
        failed = verify_canonical_hypergroup(S).failed()
        assert [d.witness for d in found] == [c.as_dict() for c in failed[:1]]


def _constant_sums(size, sums):
    """A (2,2) table on ``size`` elements with every sum ``sums`` and every
    product 0."""
    from hyperring import FiniteStructure
    from hyperring.core import multisets

    add = dict.fromkeys(multisets(size, 2), frozenset(sums))
    mul = dict.fromkeys(multisets(size, 2), 0)
    return FiniteStructure("sums", 2, 2, tuple(map(str, range(size))), add, mul, 0)


def test_one_element_structures_skip_locality(audit_report):
    cells = {
        (c.structure, c.theorem): c
        for c in audit_report.cells
        if c.structure.endswith("-o1-000")
    }
    for (name, tid), cell in cells.items():
        if tid in ("T02", "T17", "T20", "T27"):
            assert cell.status == SKIP
            assert cell.reason == "no proper hyperideals"


def test_transfer_theorems_hold_on_fixtures(audit_report):
    for cell in audit_report.cells:
        if cell.theorem in ("T20", "T21", "T27"):
            assert cell.status in (PASS, SKIP)


def test_hom_fixture_population(small_catalog):
    # identity always present; projection fixtures appear for verified
    # structures with well-defined quotients
    entries = [e for e in small_catalog if e.verified and e.structure.size == 3]
    ctx = StructureContext(entries[0], entries, k_max=3)
    tags = {f.tag for f in ctx.hom_fixtures}
    assert "identity" in tags
    assert any(t.startswith("projection/") for t in tags)


def _per_pair_hom_fixtures(ctx):
    """(tag, mapping, delta, gamma) of every compatible pair of every hom
    fixture, each pair decided on its own by ``is_delta_gamma_hom``."""
    S = ctx.S
    homs = [("identity", identity_hom(S), {})]
    for quot in ctx.quotients:
        tag = f"projection/{{{','.join(S.labels_of(quot.q.modulus))}}}"
        homs.append((tag, projection_hom(quot.q), quot.induced))
    for other in ctx.catalog if S.size <= MONO_FIXTURE_MAX_ORDER else ():
        T = other.structure
        if other.verified and (T.m, T.n) == (S.m, S.n) and T.size <= MONO_FIXTURE_MAX_ORDER:
            for h in enumerate_homomorphisms(S, T):
                if h.injective:
                    homs.append((f"mono->{T.name}", h, {}))
    out = []
    for tag, h, induced in homs:
        pairs = [(ctx.registry[name], dq) for name, dq in induced.items()]
        pairs += product(ctx.registry.values(), h.target.lattice.registry.values())
        for delta, gamma in pairs:
            if is_delta_gamma_hom(h, delta, gamma)[0]:
                out.append((tag, h.mapping, delta.name, gamma.name))
    return out


def test_hom_fixtures_match_the_per_pair_reference(full_catalog):
    # one record per hom gives the pairs, in order, that deciding each
    # (delta, gamma) pair on its own gives; fixture order is the T20 and
    # T27 instance order, so it must not depend on the hash seed
    ordered = sorted(full_catalog, key=lambda e: e.structure.name)
    records = pairs = 0
    for entry in ordered:
        if not entry.verified or entry.structure.one is None:
            continue
        ctx = StructureContext(entry, ordered, k_max=3)
        got = [
            (f.tag, f.hom.mapping, delta.name, gamma.name)
            for f in ctx.hom_fixtures
            for delta, gamma in f.pairs
        ]
        assert got == _per_pair_hom_fixtures(ctx), entry.structure.name
        pairs += len(got)
        for f in ctx.hom_fixtures:
            h, tl = f.hom, f.hom.target.lattice
            preimages = {I.members: h.preimage(I.members) for I in tl.proper()}
            assert f.preimages == (preimages if h.injective else {})
            ker = kernel(h)
            images = {Q: h.image(Q) for Q in ctx.proper if ker <= Q}
            assert f.images == (images if h.surjective else {})
            records += 1
    assert (records, pairs) == (206, 1678)


def test_no_theorem_is_vacuous_over_the_catalog(audit_report):
    # each check must quantify over real instances somewhere in the catalog,
    # otherwise a PASS would be an artifact of empty hypothesis ranges
    checked = {}
    for cell in audit_report.cells:
        if cell.status == PASS:
            checked[cell.theorem] = checked.get(cell.theorem, 0) + cell.checked
    for tid in THEOREMS:
        assert checked.get(tid, 0) > 0, tid


def test_fail_cells_carry_replaying_witnesses(b24):
    # force a FAIL by claiming a theorem over a doctored catalog: drop the
    # identity gating by auditing an unverified-but-consistent structure is
    # not possible here, so instead check the audit contract on a theorem
    # that cannot fail: every cell is PASS/SKIP and witnesses stay None
    rep = run_audit([b24], theorem_ids=["T22", "T23"])
    for cell in rep.cells:
        assert cell.status in (PASS, SKIP)
        assert cell.witness is None
