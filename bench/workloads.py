"""The three workloads: what one pass does, and how its outputs are checked.

A workload prepares its own data once (the manifest and the seeded draws),
reads its input files from disk in set-up, runs passes that build every
structure object afresh from those inputs, and checks the outputs of a pass
against the reference checker outside the timed region.
The workbench is reached only through the names ``hyperring`` exports and
the public methods of its objects; the one exception is
``hyperring.audit.replay_cell``, which the audit check uses to replay FAIL
witnesses.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, defaultdict

import checker
import inputs

FAILED = object()  # what Recorder.call returns for an operation that raised


class Recorder:
    """Counts one pass's operations.  An operation that raises is counted as
    failed, by call name, exception type and the input the pass is on
    (``input``, set by the workload), and the pass goes on."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()  # (call, exception, input) -> count
        self.input = None
        self.tracer = tracer

    def call(self, label: str, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            return fn(*args)
        except Exception as exc:  # the pass must go on; the failure is counted
            self.failed += 1
            self.errors[label, type(exc).__name__, self.input] += 1
            return FAILED


def _sha(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


class Workload:
    """The constructor prepares the benchmark's own data, outside set-up.
    Set-up reads the catalog inputs named by ``names`` (None: all of them)
    and hands them to ``setup`` with the imported package; ``run_pass`` is
    one timed pass, and ``digest``, ``check`` and ``cells`` look at a pass's
    outputs afterwards."""

    name = ""
    names = None

    def __init__(self, args):
        self.manifest = inputs.load_manifest()

    def setup(self, hr, texts: dict) -> None:
        self.hr = hr
        self.texts = texts

    def known_failure(self, call: str, exc: str, name) -> bool:
        """Whether a failure is a known fault of the program, not a wrong answer."""
        return False

    def cells(self, outputs) -> int:
        return 0


class Build(Workload):
    """One operation is one ``enumerate_structures(m, n, order)`` call."""

    name = "build"
    names = ()

    def run_pass(self, rec: Recorder) -> list:
        enum = self.hr.enumerate_structures
        return [rec.call("enumerate_structures", enum, m, n, o) for m, n, o in inputs.BUILD_SHAPES]

    def digest(self, outputs) -> str:
        export = self.hr.export_structure
        return _sha(
            "FAILED" if out is FAILED else "".join(export(S) for S in out) for out in outputs
        )

    def check(self, outputs) -> list:
        problems = []
        for (m, n, o), out in zip(inputs.BUILD_SHAPES, outputs):
            if out is FAILED:
                continue
            tables = [checker.Table.from_structure(S) for S in out]
            bad = [S.name for S, T in zip(out, tables) if not checker.is_krasner(T)]
            if bad:
                problems.append(f"({m},{n},{o}): {bad[0]} fails the Krasner axioms")
            if len({checker.certificate(T) for T in tables}) != len(tables):
                problems.append(f"({m},{n},{o}): two outputs are isomorphic")
            if (m, n, o) in inputs.BRUTE_FORCE_SHAPES:
                expected = checker.brute_force_count(m, n, o)
            else:
                expected = self.manifest["reference_counts"][f"{m},{n},{o}"]
            if len(out) != expected:
                problems.append(f"({m},{n},{o}): {len(out)} structures, expected {expected}")
        return problems


class Audit(Workload):
    """One operation is ``run_audit`` plus ``to_jsonl`` on one input set:
    each order-4 structure alone, the structures of order <= 3 by arity."""

    name = "audit"

    def __init__(self, args):
        super().__init__(args)
        self.rows = {s["name"]: s for s in self.manifest["structures"]}
        self.groups = inputs.audit_groups(self.manifest)

    def _entries(self, names) -> list:
        hr = self.hr
        out = []
        for name in names:
            row = self.rows[name]
            claims = tuple(
                hr.Claim(c["kind"], tuple(c["subset"]) if c["subset"] else None)
                for c in row["claims"]
            )
            S = hr.parse_structure(self.texts[name])
            out.append(hr.CatalogEntry(S, "builtin" if claims else "enumerated", claims))
        return out

    def _operation(self, names):
        entries = self._entries(names)
        return entries, self.hr.run_audit(entries).to_jsonl()

    def run_pass(self, rec: Recorder) -> list:
        return [rec.call("run_audit", self._operation, names) for names in self.groups]

    def digest(self, outputs) -> str:
        return _sha("FAILED" if out is FAILED else out[1] for out in outputs)

    def check(self, outputs) -> list:
        from hyperring.audit import replay_cell

        hr = self.hr
        needs_identity = {tid: t.needs_identity for tid, t in hr.THEOREMS.items()}
        problems = []
        for out in outputs:
            if out is FAILED:
                continue
            entries, jsonl = out
            records = [json.loads(line) for line in jsonl.splitlines()]
            cells = defaultdict(list)
            for r in records:
                if r["record"] == "cell":
                    cells[r["structure"]].append(r)
            for entry in entries:
                S = entry.structure
                T = checker.Table.from_text(self.texts[S.name])
                mine = cells[S.name]
                if sorted(c["theorem"] for c in mine) != sorted(needs_identity):
                    problems.append(f"{S.name}: {len(mine)} cells, expected one per theorem")
                verified = checker.is_krasner(T)
                no_one = checker.identity(T) is None
                for c in mine:
                    skipped = c["reason"] == "no scalar identity"
                    if skipped != (verified and no_one and needs_identity[c["theorem"]]):
                        problems.append(f"{S.name} {c['theorem']}: identity SKIP misplaced")
                    if c["status"] == "FAIL":
                        cell = hr.AuditCell(**{k: v for k, v in c.items() if k != "record"})
                        if not replay_cell(entries, cell, 3):
                            problems.append(f"{S.name} {c['theorem']}: witness does not replay")
                if verified:
                    lattice = entry.lattice()
                    j_verdicts = [
                        (I.members, hr.is_j_hyperideal(S, I.members, lattice).verdict.value)
                        for I in lattice.proper()
                    ]
                    problems += _lattice_problems(S.name, T, lattice, j_verdicts)
        return problems

    def cells(self, outputs) -> int:
        return sum(
            out[1].count('"record": "cell"') for out in outputs if out is not FAILED
        )


def _lattice_problems(name, T, lattice, j_verdicts) -> list:
    """The program's lattice and its J verdicts, (members, verdict) pairs,
    against the checker's."""
    ideals = checker.hyperideals(T)
    if sorted(sorted(i.members) for i in lattice) != sorted(sorted(i) for i in ideals):
        return [f"{name}: lattice differs from the checker's"]
    return [
        f"{name} {sorted(Q)}: J verdict {got} differs from the checker's"
        for Q, got in j_verdicts
        if got != checker.j_verdict(T, Q, ideals)
    ]


class Query(Workload):
    """One operation is one public call, in the order a command-line user
    issues them: parse, verify, lattice, Jacobson radical, then classify,
    radical and quotient for each proper ideal, then export."""

    name = "query"
    BROKEN_TABLES = 60

    def __init__(self, args):
        super().__init__(args)
        self.names = set(sample(self.manifest, args.seed))
        self.broken = inputs.random_tables(args.table_seed, self.BROKEN_TABLES)

    def setup(self, hr, texts: dict) -> None:
        super().setup(hr, {**texts, **self.broken})

    def known_failure(self, call: str, exc: str, name) -> bool:
        """The known fault: on a table whose carrier is not a hyperideal,
        IdealLattice.by_members(carrier) raises KeyError inside
        radical_by_primes, and inside classify through standard_registry ->
        radical_expansion.  Only a broken table can have such a carrier."""
        if (call, exc) not in (("classify", "KeyError"), ("radical_by_primes", "KeyError")):
            return False
        T = checker.Table.from_text(self.texts[name])
        return not checker.is_hyperideal(T, T.carrier)

    def _structure(self, rec: Recorder, name: str, text: str) -> dict:
        hr = self.hr
        rec.input = name
        out = {"text": text}
        S = out["S"] = rec.call("parse_structure", hr.parse_structure, text)
        if S is FAILED:
            return out
        out["report"] = rec.call("verify_krasner", hr.verify_krasner, S)
        lattice = out["lattice"] = rec.call("enumerate_hyperideals", hr.enumerate_hyperideals, S)
        out["jacobson"] = rec.call("jacobson_radical", hr.jacobson_radical, S)
        out["ideals"] = [] if lattice is FAILED else [
            (
                ideal.members,
                rec.call("classify", hr.classify, S, ideal.members),
                rec.call("radical_by_primes", hr.radical_by_primes, S, ideal.members),
                rec.call("quotient", hr.quotient, S, ideal.members),
            )
            for ideal in lattice.proper()
        ]
        out["export"] = rec.call("export_structure", hr.export_structure, S)
        return out

    def run_pass(self, rec: Recorder) -> list:
        return [self._structure(rec, name, text) for name, text in self.texts.items()]

    @staticmethod
    def _facts(out):
        def members(x):
            return None if x is FAILED else sorted(x.members)

        if out["S"] is FAILED:
            return ["FAILED"]
        return [
            out["report"] is not FAILED and out["report"].ok,
            out["lattice"] is not FAILED and sorted(sorted(i.members) for i in out["lattice"]),
            members(out["jacobson"]),
            [
                [sorted(Q), None if cl is FAILED else cl.verdicts["J"].value, members(rad),
                 None if q is FAILED else q.ok]
                for Q, cl, rad, q in out["ideals"]
            ],
            None if out["export"] is FAILED else out["export"],
        ]

    def digest(self, outputs) -> str:
        return _sha(json.dumps(self._facts(out)) for out in outputs)

    def check(self, outputs) -> list:
        problems = []
        for out in outputs:
            if out["S"] is FAILED:
                continue
            S = out["S"]
            T = checker.Table.from_text(out["text"])
            if out["export"] is not FAILED and out["export"] != out["text"]:
                problems.append(f"{S.name}: export does not round-trip")
            if out["report"] is not FAILED and out["report"].ok != checker.is_krasner(T):
                problems.append(f"{S.name}: verify_krasner verdict differs from the checker's")
            jac = out["jacobson"]
            if jac is not FAILED and jac.members != checker.jacobson(T, checker.hyperideals(T)):
                problems.append(f"{S.name}: Jacobson radical differs from the checker's")
            if out["lattice"] is not FAILED:
                j_verdicts = [
                    (Q, cl.verdicts["J"].value) for Q, cl, _, _ in out["ideals"] if cl is not FAILED
                ]
                problems += _lattice_problems(S.name, T, out["lattice"], j_verdicts)
        return problems


def sample(manifest: dict, seed: int) -> list:
    """Seeded half of the catalog, stratified by shape, identity, verdict and
    proper-ideal count, so every seed draws the same number of calls of
    each kind and only which structures fill a stratum changes."""
    strata = defaultdict(list)
    for s in manifest["structures"]:
        key = (s["order"], s["m"], s["n"], s["identity"], s["verified"], s["proper_ideals"])
        strata[key].append(s["name"])
    rng = random.Random(seed)
    picked = []
    for key in sorted(strata):
        names = strata[key]
        picked += rng.sample(names, (len(names) + 1) // 2)
    return sorted(picked)


WORKLOADS = {w.name: w for w in (Build, Audit, Query)}
