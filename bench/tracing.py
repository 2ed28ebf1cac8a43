"""The traced run: spans around the calls into each layer of the workbench.

Wrappers are installed at run time from here, never in the untimed runs,
and nothing under ``src/`` changes.  They go around every function the
package exports, in every ``hyperring`` module namespace that binds it,
around ``FiniteStructure.build``, and around the ``run`` of every
``THEOREMS`` entry.  A span records its name, layer (the module that defines
the wrapped function), start, end, parent span and operation id, plus a
small fact about the result where a metric needs one.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import random
import statistics
import sys
from collections import defaultdict
from itertools import combinations

import probe

NAME, LAYER, START, END, PARENT, OP, INFO = range(7)

# calls per table-evaluation stream of the lookup micro-measurement
LOOKUP_CALLS = 20000

LAYERS = ("core", "catalog", "ideals", "classifiers", "morphology", "audit", "fileformat")


def _result_info(name, args, out):
    if name in ("verify_krasner", "verify_canonical_hypergroup"):
        return out.ok
    if name == "enumerate_hyperideals":
        return len(out)
    if name == "enumerate_structures":
        return [list(args[:3]), len(out)]
    return None


class Tracer:
    def __init__(self, hyperring, clock):
        self.hr = hyperring
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self.op = 0
        self._undo: list = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[INFO] = _result_info(name, args, out)
                return out
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        hr = self.hr
        modules = [
            m for k, m in sys.modules.items() if k == "hyperring" or k.startswith("hyperring.")
        ]
        wrapped = {}
        for name, obj in vars(hr).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                wrapped[id(obj)] = self.wrap(name, obj.__module__.rsplit(".", 1)[-1], obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        FS = hr.FiniteStructure
        build = FS.__dict__["build"]
        self._undo.append((FS, "build", build))
        FS.build = classmethod(self.wrap("build", "core", build.__func__))
        theorems = hr.THEOREMS
        self._theorems = dict(theorems)
        for tid, check in self._theorems.items():
            theorems[tid] = dataclasses.replace(
                check, run=self.wrap(f"theorem.{tid}", "audit", check.run)
            )

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()
        self.hr.THEOREMS.update(self._theorems)

    def dump(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def layer_metrics(spans, pass_seconds: float, cells: int) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_time = defaultdict(float)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        self_time[rec[LAYER]] += dur - child[i]
        by_name[rec[NAME]].append((dur, rec[INFO]))

    def calls(name):
        return len(by_name[name])

    def mean(name, scale):
        durs = [d for d, _ in by_name[name]]
        return statistics.fmean(durs) * scale if durs else 0.0

    def ratio(name):
        infos = [i for _, i in by_name[name]]
        return sum(1 for i in infos if i) / len(infos) if infos else 0.0

    enum = [(d, i) for d, i in by_name["enumerate_structures"] if i is not None]
    sizes = [i for _, i in by_name["enumerate_hyperideals"] if i is not None]
    out = {
        "core.build.calls": (calls("build"), "count"),
        "core.build.us": (mean("build", 1e6), "us"),
        "core.verify_hypergroup.calls": (calls("verify_canonical_hypergroup"), "count"),
        "core.verify_hypergroup.pass_ratio": (ratio("verify_canonical_hypergroup"), "ratio"),
        "core.verify_hypergroup.ms": (mean("verify_canonical_hypergroup", 1e3), "ms"),
        "core.verify_krasner.calls": (calls("verify_krasner"), "count"),
        "core.verify_krasner.pass_ratio": (ratio("verify_krasner"), "ratio"),
        "core.verify_krasner.ms": (mean("verify_krasner", 1e3), "ms"),
        "catalog.enumerate_2-2-4.s": (sum(d for d, i in enum if i[0] == [2, 2, 4]), "s"),
        "catalog.enumerate_le3.s": (sum(d for d, i in enum if i[0][2] <= 3), "s"),
        "catalog.canonical_key.calls": (calls("canonical_key"), "count"),
        "catalog.canonical_key.ms": (mean("canonical_key", 1e3), "ms"),
        "catalog.structures_out": (sum(i[1] for _, i in enum), "count"),
        "ideals.lattice.calls": (calls("enumerate_hyperideals"), "count"),
        "ideals.lattice.ms": (mean("enumerate_hyperideals", 1e3), "ms"),
        "ideals.lattice.mean_size": (statistics.fmean(sizes) if sizes else 0.0, "count"),
        "ideals.radical.calls": (calls("radical_by_primes"), "count"),
        "ideals.radical.us": (mean("radical_by_primes", 1e6), "us"),
        "ideals.prime.us": (mean("prime_witness", 1e6), "us"),
        "ideals.primary.us": (mean("is_primary", 1e6), "us"),
        "ideals.residual.us": (mean("residual", 1e6), "us"),
        "classifiers.registry.ms": (mean("standard_registry", 1e3), "ms"),
        "classifiers.classify.calls": (calls("classify"), "count"),
        "classifiers.classify.ms": (mean("classify", 1e3), "ms"),
        "classifiers.j.us": (mean("is_j_hyperideal", 1e6), "us"),
        "classifiers.delta_j.us": (mean("is_delta_j", 1e6), "us"),
        "classifiers.delta_primary.us": (mean("is_delta_primary", 1e6), "us"),
        "classifiers.absorbing.calls": (calls("is_absorbing_delta_j"), "count"),
        "classifiers.absorbing.ms": (mean("is_absorbing_delta_j", 1e3), "ms"),
        "morphology.quotient.calls": (calls("quotient"), "count"),
        "morphology.quotient.ms": (mean("quotient", 1e3), "ms"),
        "morphology.homs.calls": (calls("enumerate_homomorphisms"), "count"),
        "morphology.homs.ms": (mean("enumerate_homomorphisms", 1e3), "ms"),
        "morphology.delta_gamma.calls": (calls("is_delta_gamma_hom"), "count"),
        "morphology.delta_gamma.us": (mean("is_delta_gamma_hom", 1e6), "us"),
        "fileformat.parse.us": (mean("parse_structure", 1e6), "us"),
        "fileformat.export.us": (mean("export_structure", 1e6), "us"),
        "audit.cells": (cells, "count"),
    }
    for t in range(1, 28):
        out[f"audit.theorem.T{t:02d}.ms"] = (mean(f"theorem.T{t:02d}", 1e3), "ms")
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (self_time[layer] / pass_seconds, "ratio")
    return out


def lookup_costs(meter, structures, seed: int) -> dict:
    """Per-call time of the four table evaluations, over seeded argument
    streams drawn from the given structures, timed in probe units and
    quoted at the reference probe speed (see probe.REFERENCE_PU_S)."""
    rng = random.Random(seed)
    picks = [rng.choice(structures) for _ in range(LOOKUP_CALLS)]

    def args(S, arity):
        return tuple(rng.randrange(S.size) for _ in range(arity))

    def subsets(S):
        pool = [c for r in range(1, S.size + 1) for c in combinations(range(S.size), r)]
        return [set(rng.choice(pool)) for _ in range(S.m)]

    streams = {
        "core.lookup.hyperadd_ns": ([(S.hyperadd, args(S, S.m)) for S in picks], 1e9),
        "core.lookup.multiply_ns": ([(S.multiply, args(S, S.n)) for S in picks], 1e9),
        "core.lookup.multiply_iterated_ns": (
            [(S.multiply_iterated, args(S, rng.randint(1, 3) * (S.n - 1) + 1)) for S in picks],
            1e9,
        ),
        "core.lookup.hyperadd_subsets_us": ([(S.hyperadd_subsets, subsets(S)) for S in picks], 1e6),
    }
    out = {}
    for name, (stream, scale) in streams.items():
        with meter.span() as span:
            for fn, a in stream:
                fn(a)
        per_call = span.pu * probe.REFERENCE_PU_S / len(stream)
        out[name] = (per_call * scale, name.rsplit("_", 1)[-1])
    return out
