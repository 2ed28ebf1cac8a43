"""Command-line interface: exit codes, output shapes, determinism."""

import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from hyperring import FiniteStructure, export_structure
from hyperring.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_verify_passing_structure(runner, kmn_file, b24):
    path = kmn_file(b24.structure)
    res = invoke(runner, "verify", path)
    assert res.exit_code == 0
    assert "Krasner axioms: pass" in res.output


def test_verify_failing_structure_exits_one(runner, kmn_file, b33):
    path = kmn_file(b33.structure)
    res = invoke(runner, "verify", path)
    assert res.exit_code == 1
    assert "distributivity: FAIL" in res.output


def test_verify_json_output(runner, kmn_file, b24):
    path = kmn_file(b24.structure)
    res = invoke(runner, "verify", path, "--json")
    doc = json.loads(res.output)
    assert doc["ok"] is True
    assert any(c["axiom"] == "add-reversibility" for c in doc["checks"])


def test_verify_usage_error_is_exit_two(runner, tmp_path):
    bad = tmp_path / "bad.kmn"
    bad.write_text("{}", encoding="utf-8")
    res = invoke(runner, "verify", str(bad))
    assert res.exit_code == 2


def _malformed_text(kind, structure):
    if kind == "deep":
        return "[" * 100000 + "]" * 100000
    doc = json.loads(export_structure(structure))
    doc["name"] = [1]
    return json.dumps(doc)


@pytest.mark.parametrize("kind", ["deep", "listname"])
@pytest.mark.parametrize("command", ["verify", "audit"])
def test_malformed_file_is_exit_two(runner, tmp_path, b33, kind, command):
    bad = tmp_path / f"{kind}.kmn"
    bad.write_text(_malformed_text(kind, b33.structure), encoding="utf-8")
    res = runner.invoke(main, [command, str(bad)])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "not valid JSON" in res.output or "name must be a string" in res.output


@pytest.fixture()
def nine_element_file(kmn_file):
    # well-formed but past the size guard of exhaustive verification
    from hyperring import FiniteStructure
    from hyperring.core import multisets

    add = {k: frozenset({k[1]} if k[0] == 0 else range(9)) for k in multisets(9, 2)}
    mul = {k: 0 for k in multisets(9, 2)}
    labels = tuple(str(i) for i in range(9))
    return kmn_file(FiniteStructure.build("big9", 2, 2, labels, add, mul, 0))


@pytest.mark.parametrize("command", ["verify", "audit"])
def test_oversize_structure_is_exit_two(runner, nine_element_file, command):
    res = runner.invoke(main, [command, nine_element_file])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert res.output.strip().count("\n") == 0
    assert "exceed the exhaustive verification guard" in res.output
    assert "verify --allow-large" in res.output


def _one_element_text(m, n):
    # one key per table, so a large arity costs a line per factor, not a
    # table blow-up
    doc = {"name": "wide", "m": m, "n": n, "elements": ["0"], "zero": "0", "one": None}
    doc["f"] = [{"args": ["0"] * m, "value": ["0"]}]
    doc["g"] = [{"args": ["0"] * n, "value": "0"}]
    return json.dumps(doc)


@pytest.mark.parametrize("m,n", [(2000, 2), (2, 2000)])
@pytest.mark.parametrize(
    "command,code,expected",
    [
        ("verify", 2, "exceed the exhaustive verification guard"),
        ("audit", 2, "exceed the exhaustive verification guard"),
        ("ideals", 0, "{0}"),
        ("jacobson", 0, "{0}"),
    ],
)
def test_large_arity_exits_without_a_traceback(runner, tmp_path, m, n, command, code, expected):
    path = tmp_path / "wide.kmn"
    path.write_text(_one_element_text(m, n), encoding="utf-8")
    res = runner.invoke(main, [command, str(path)])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code == code
    assert "Traceback" not in res.output
    assert expected in res.output


def test_verify_allow_large_runs_past_the_guard(runner, nine_element_file):
    res = invoke(runner, "verify", nine_element_file, "--allow-large")
    assert res.exit_code == 1
    assert "Krasner axioms: FAIL" in res.output


def test_ideals_listing(runner, kmn_file, b24):
    path = kmn_file(b24.structure)
    res = invoke(runner, "ideals", path)
    assert res.exit_code == 0
    assert res.output.splitlines() == ["{0}", "{0,1}", "{0,a}", "{0,1,a,b}"]


def test_jacobson(runner, kmn_file, b24):
    res = invoke(runner, "jacobson", kmn_file(b24.structure))
    assert res.output.strip() == "{0}"


def test_jacobson_of_a_table_without_hyperideals(runner, kmn_file):
    # f = {0} everywhere and g(0, 1) = 1: no subset is a hyperideal, so
    # there is no maximal one and the radical is the whole carrier
    add = {key: frozenset({0}) for key in ((0, 0), (0, 1), (1, 1))}
    mul = {(0, 0): 0, (0, 1): 1, (1, 1): 0}
    S = FiniteStructure.build("no-ideal", 2, 2, ("0", "1"), add, mul, 0)
    res = runner.invoke(main, ["jacobson", kmn_file(S)])
    assert res.exception is None
    assert res.exit_code == 0
    assert res.output.strip() == "{0,1}"


@pytest.fixture()
def carrier_not_an_ideal_file(kmn_file):
    # f(0,0) = {0}, f(0,1) = f(1,1) = {1}, g = 0: {0} is the only hyperideal
    # and no prime lies over it, so its radical is the carrier, which is not
    # a hyperideal
    add = {(0, 0): frozenset({0}), (0, 1): frozenset({1}), (1, 1): frozenset({1})}
    mul = {(0, 0): 0, (0, 1): 0, (1, 1): 0}
    return kmn_file(FiniteStructure.build("two", 2, 2, ("0", "1"), add, mul, 0))


def _one_line_exit_two(res):
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert res.output.count("\n") == 1
    assert "a radical is not a hyperideal" in res.output


def test_classify_on_a_radical_outside_the_lattice_is_exit_two(runner, carrier_not_an_ideal_file):
    res = runner.invoke(main, ["classify", carrier_not_an_ideal_file, "--ideal", "0"])
    _one_line_exit_two(res)


def test_radical_outside_the_lattice_is_exit_two(runner, carrier_not_an_ideal_file):
    res = runner.invoke(main, ["radical", carrier_not_an_ideal_file, "--ideal", "0"])
    _one_line_exit_two(res)


def test_search_on_a_radical_outside_the_lattice_is_exit_two(runner, carrier_not_an_ideal_file):
    res = runner.invoke(main, ["search", "--implication", "J => prime", carrier_not_an_ideal_file])
    _one_line_exit_two(res)


def test_radical(runner, kmn_file, b24):
    res = invoke(runner, "radical", kmn_file(b24.structure), "--ideal", "0")
    assert res.exit_code == 0
    assert "by-primes: {0,1}" in res.output
    assert "not applicable" in res.output


def test_radical_power_form_with_identity(runner, kmn_file, b33):
    res = invoke(runner, "radical", kmn_file(b33.structure), "--ideal", "0")
    assert res.exit_code == 0
    assert "by-primes: {0}" in res.output
    assert "by-powers: {0}" in res.output


def test_classify_j_claim(runner, kmn_file, b33):
    res = invoke(runner, "classify", kmn_file(b33.structure), "--ideal", "0")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["verdicts"]["J"] == "true"


def test_classify_non_ideal_exits_one(runner, kmn_file, b33):
    res = invoke(runner, "classify", kmn_file(b33.structure), "--ideal", "0,x")
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["is_ideal"] is False
    assert doc["ideal_clause"] == "solvability"


def test_classify_unknown_delta_is_usage_error(runner, kmn_file, b33):
    res = invoke(runner, "classify", kmn_file(b33.structure), "--ideal", "0", "--delta", "nope")
    assert res.exit_code == 2


def test_unknown_ideal_label_is_usage_error(runner, kmn_file, b33):
    res = invoke(runner, "classify", kmn_file(b33.structure), "--ideal", "0,zz")
    assert res.exit_code == 2


def test_quotient_command(runner, kmn_file, b24, tmp_path):
    out = tmp_path / "q.kmn"
    res = invoke(
        runner, "quotient", kmn_file(b24.structure), "--ideal", "0,1", "--out", str(out)
    )
    assert res.exit_code == 0
    assert "2 element(s)" in res.output
    assert out.exists()


def test_quotient_non_ideal_exits_one(runner, kmn_file, b33):
    res = invoke(runner, "quotient", kmn_file(b33.structure), "--ideal", "0,x")
    assert res.exit_code == 1
    assert "ill-defined quotient" in res.output


def test_audit_builtin(runner, tmp_path):
    out = tmp_path / "audit.jsonl"
    res = invoke(runner, "audit", "--builtin", "--theorems", "T01,T22", "--out", str(out))
    assert res.exit_code == 0
    assert "discrepancy record(s)" in res.output
    lines = out.read_text().strip().splitlines()
    records = [json.loads(l) for l in lines]
    kinds = [r["record"] for r in records]
    assert kinds[0] == "meta" and kinds[-1] == "summary"
    cells = [r for r in records if r["record"] == "cell"]
    assert {c["theorem"] for c in cells} == {"T01", "T22"}


def test_audit_exit_zero_despite_discrepancies(runner):
    res = invoke(runner, "audit", "--builtin")
    assert res.exit_code == 0
    assert "DISCREPANCY" in res.output


def test_audit_default_catalog_summary(runner):
    # the full default run: four recorded constant-expansion failures, four
    # builtin-claim discrepancies, exit 0 regardless
    res = invoke(runner, "audit", "--default-catalog")
    assert res.exit_code == 0
    assert "4 fail" in res.output
    assert "over 100 structures" in res.output
    assert "4 discrepancy record(s)" in res.output


def test_audit_determinism(runner, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    invoke(runner, "audit", "--builtin", "--theorems", "T01", "--out", str(a))
    invoke(runner, "audit", "--builtin", "--theorems", "T01", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_audit_enumerate_option(runner):
    res = invoke(runner, "audit", "--enumerate", "2", "2", "2", "--theorems", "T01")
    assert res.exit_code == 0
    assert "0 fail" in res.output


def test_audit_on_files(runner, kmn_file, b24, b33):
    res = invoke(runner, "audit", kmn_file(b24.structure), kmn_file(b33.structure), "--theorems", "T22")
    assert res.exit_code == 0
    assert "over 2 structures" in res.output


def test_radical_on_non_ideal_exits_one(runner, kmn_file, b33):
    res = invoke(runner, "radical", kmn_file(b33.structure), "--ideal", "0,x")
    assert res.exit_code == 1
    assert "not a hyperideal" in res.output


def test_audit_enumeration_cap_notice(runner):
    # 5^10 multiplication tables exceed the enumeration cap at once
    res = runner.invoke(
        main,
        ["audit", "--enumerate", "2", "2", "5", "--theorems", "T01"],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    assert "enumeration truncated" in res.output
    # nothing was enumerated, and the built-ins were not asked for
    assert "over 0 structures" in res.output
    assert "builtin33" not in res.output


@pytest.mark.parametrize("spec", [("5", "2", "2"), ("2", "2", "0")])
def test_audit_enumerate_bad_shape_is_usage_error(runner, spec):
    res = invoke(runner, "audit", "--enumerate", *spec, "--theorems", "T01")
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "--enumerate" in res.output


def test_audit_unknown_theorem_usage_error(runner):
    res = invoke(runner, "audit", "--builtin", "--theorems", "T99")
    assert res.exit_code == 2


def test_search_counterexample_output(runner, kmn_file, b24):
    res = invoke(runner, "search", "--implication", "maximal => prime", kmn_file(b24.structure))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["structure"] == "builtin24"


def test_search_no_counterexample(runner, kmn_file, b24):
    res = invoke(runner, "search", "--implication", "J => in-jacobson", kmn_file(b24.structure))
    assert res.exit_code == 0
    assert "no counterexample" in res.output


def test_search_bad_spec_usage_error(runner, kmn_file):
    res = invoke(runner, "search", "--implication", "J oops prime", "--builtin")
    assert res.exit_code == 2
    # a one-element structure has no proper ideal to evaluate the sides on
    from hyperring import enumerate_structures

    one = kmn_file(enumerate_structures(2, 2, 1)[0], "one")
    res = invoke(runner, "search", "--implication", "bogus => nonsense[1,2,3]", one)
    assert res.exit_code == 2
    res = invoke(runner, "search", "--implication", "J[delta0] => prime", "--builtin")
    assert res.exit_code == 2


def test_catalog_export(runner, tmp_path):
    target = tmp_path / "cat"
    res = invoke(runner, "catalog", "export", str(target), "--max-order", "1")
    assert res.exit_code == 0
    files = sorted(p.name for p in target.glob("*.kmn"))
    assert "builtin33.kmn" in files and "builtin24.kmn" in files


def test_module_entry_point(kmn_file, b24):
    path = kmn_file(b24.structure)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperring", "verify", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Krasner axioms: pass" in proc.stdout
