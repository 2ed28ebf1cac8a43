"""The benchmark's own tests: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import hyperring as hr  # noqa: E402
import inputs  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _table(S):
    return checker.Table.from_text(hr.export_structure(S))


# -- the reference checker against the README's facts ------------------------


def test_builtin33_fails_distributivity_and_0x_is_no_hyperideal():
    S = hr.builtin_examples()[0].structure
    T = _table(S)
    assert checker.failed_axiom(T) == "distributivity"
    x = S.index_of("x")
    assert not checker.is_hyperideal(T, {S.zero, x})
    assert not hr.is_hyperideal(S, {S.zero, x}).ok


def test_builtin24_is_verified_with_two_maximal_ideals_and_no_identity():
    S = hr.builtin_examples()[1].structure
    T = _table(S)
    assert checker.is_krasner(T)
    assert checker.identity(T) is None
    ideals = checker.hyperideals(T)
    assert len(checker.maximal(T, ideals)) == 2
    assert checker.jacobson(T, ideals) == {S.zero}


def test_checker_reads_files_and_structures_alike():
    for entry in hr.builtin_examples():
        a, b = _table(entry.structure), checker.Table.from_structure(entry.structure)
        assert (a.f, a.g) == (b.f, b.g)


def test_checker_verdicts_match_the_manifest_and_the_workbench():
    manifest = inputs.load_manifest()
    texts = inputs.read_catalog(manifest)
    for row in manifest["structures"]:
        S = hr.parse_structure(texts[row["name"]])
        T = checker.Table.from_text(texts[row["name"]])
        assert row["verified"] == checker.is_krasner(T) == hr.verify_krasner(S).ok
        assert row["identity"] == (S.one is not None) == (checker.identity(T) is not None)


def test_brute_force_counts_match_enumeration_at_order_two():
    for m, n in ((2, 2), (3, 2), (2, 3), (3, 3)):
        assert checker.brute_force_count(m, n, 2) == len(hr.enumerate_structures(m, n, 2))


def test_certificates_separate_and_identify_relabelings():
    out = hr.enumerate_structures(2, 2, 3)
    certs = [checker.certificate(checker.Table.from_structure(S)) for S in out]
    assert len(set(certs)) == len(out)
    T = checker.Table.from_structure(out[-1])
    swap = {0: 0, 1: 2, 2: 1}
    f = {tuple(swap[x] for x in t): frozenset(swap[v] for v in vs) for t, vs in T.f.items()}
    g = {tuple(swap[x] for x in t): swap[v] for t, v in T.g.items()}
    assert checker.certificate(checker.Table(3, 2, 2, 0, f, g)) == certs[-1]


# -- probe normalisation -------------------------------------------------------


def test_normalise_divides_each_stretch_by_the_mean_of_its_two_probes():
    assert probe.normalise([1.0, 2.0], [0.5, 1.5, 2.5]) == pytest.approx(1.0 / 1.0 + 2.0 / 2.0)
    assert probe.normalise([], [0.7]) == 0.0
    with pytest.raises(ValueError):
        probe.normalise([1.0], [1.0])


def test_meter_probes_inside_a_long_span():
    meter = probe.Meter()
    with meter.span() as span:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(span.probe_times) == len(span.stretches) + 1 >= 5
    assert span.pu == pytest.approx(probe.normalise(span.stretches, span.probe_times))
    assert span.cpu_seconds == pytest.approx(sum(span.stretches))
    assert span.seconds == pytest.approx(sum(span.wall_stretches))
    assert 0.25 < span.seconds < 0.3 and span.cpu_seconds <= span.seconds + 0.005


# -- failed operations -------------------------------------------------------------


def test_an_operation_that_raises_is_counted_and_the_pass_goes_on():
    rec = workloads.Recorder()
    assert rec.call("div", lambda: 1 / 0) is workloads.FAILED
    assert rec.call("ok", lambda: 2) == 2
    assert (rec.attempted, rec.failed, dict(rec.errors)) == (
        2, 1, {("div", "ZeroDivisionError", None): 1}
    )


def test_query_counts_the_known_fault_and_finishes_the_pass():
    q = workloads.Query(Namespace(seed=1, table_seed=2021))
    good = inputs.read_catalog(q.manifest, {"builtin24"})
    q.setup(hr, {"unparsable": "{", **good})
    rec = workloads.Recorder()
    outputs = q.run_pass(rec)
    assert outputs[1]["export"] == good["builtin24"]
    assert rec.errors["parse_structure", "ParseError", "unparsable"] == 1
    assert {(call, exc) for call, exc, _ in rec.errors} == {
        ("parse_structure", "ParseError"), ("classify", "KeyError"),
        ("radical_by_primes", "KeyError"),
    }
    known = {k for k in rec.errors if q.known_failure(*k)}
    assert known == {k for k in rec.errors if k[2].startswith("broken-")}
    assert not q.known_failure("classify", "KeyError", "builtin24")
    assert q.check(outputs) == []


def test_query_sample_is_seeded_and_its_calls_do_not_depend_on_the_seed():
    manifest = inputs.load_manifest()
    a, b = workloads.sample(manifest, 1), workloads.sample(manifest, 2)
    assert a == workloads.sample(manifest, 1) and a != b
    rows = {s["name"]: s for s in manifest["structures"]}
    calls = [sorted(rows[n]["proper_ideals"] for n in s) for s in (a, b)]
    assert calls[0] == calls[1]


# -- the audit split -------------------------------------------------------------


def test_split_audit_inputs_give_the_cells_of_one_whole_catalog_audit():
    audit = workloads.Audit(None)
    audit.setup(hr, inputs.read_catalog(audit.manifest))
    names = [n for group in audit.groups for n in group]
    whole = hr.run_audit(audit._entries(names))
    split = [c for group in audit.groups for c in hr.run_audit(audit._entries(group)).cells]
    assert len(audit.groups) == 142

    def cells(cs):
        return sorted(json.dumps(c.as_dict(), sort_keys=True) for c in cs)

    assert cells(split) == cells(whole.cells)
    assert len(whole.cells) == 6291


# -- tracing -----------------------------------------------------------------------


def test_tracer_counts_repeat_and_uninstall_restores_the_package():
    original = (hr.verify_krasner, hr.FiniteStructure.__dict__["build"], dict(hr.THEOREMS))
    text = inputs.read_catalog(inputs.load_manifest())["enum-m2n2-o3-000"]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(hr, time.perf_counter)
        tracer.install()
        try:
            entry = hr.CatalogEntry(hr.parse_structure(text), "enumerated")
            hr.run_audit([entry])
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, 1.0, 27)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["core.verify_krasner.calls"] >= 1
    assert (hr.verify_krasner, hr.FiniteStructure.__dict__["build"], dict(hr.THEOREMS)) == original


# -- the input command ---------------------------------------------------------


def test_input_command_reproduces_the_committed_inputs(tmp_path):
    inputs.write_inputs(tmp_path)
    committed = sorted(p.relative_to(inputs.INPUTS) for p in inputs.INPUTS.rglob("*") if p.is_file())
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert committed == written
    for rel in committed:
        assert (tmp_path / rel).read_bytes() == (inputs.INPUTS / rel).read_bytes(), rel
