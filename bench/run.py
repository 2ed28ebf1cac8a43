"""Benchmark of the hyperring workbench.

    python3 bench/run.py                       # every workload, one after another
    python3 bench/run.py --workload audit --seed 3 --seconds 20 --trace 0

Each workload runs single-threaded in a fresh interpreter with
PYTHONHASHSEED=0.  A run sets up (imports the package from ``src/`` and
reads its input files) several times, then runs whole passes over its inputs for
at least ``--seconds`` and at least two passes, each pass timed in probe
units (see probe.py), then checks the last pass's outputs against the
reference checker and that every pass produced the same outputs.  It prints
one line per figure and, last, one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass (see tracing.py).  See README.md for the workloads and the figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("build", "audit", "query"))
    p.add_argument("--seed", type=int, default=1, help="draws the query sample")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--table-seed", type=int, default=2021, help="draws the broken query tables")
    p.add_argument("--lookup-seed", type=int, default=7, help="draws the traced lookup streams")
    return p.parse_args(argv)


def import_package():
    """Import hyperring from src/ afresh, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "hyperring" or m.startswith("hyperring.")]:
        del sys.modules[name]
    import hyperring

    return hyperring


def set_up(meter, workload):
    """A fresh import plus reading the workload's input files, SETUP_REPEATS
    times, each in probe units.  The benchmark's own preparation (manifest,
    seeded draws, broken tables) is done before, untimed."""
    import inputs

    pus, raws = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with meter.span() as span:
            hr = import_package()
            texts = inputs.read_catalog(workload.manifest, workload.names)
        pus.append(span.pu)
        raws.append(span.seconds)
    workload.setup(hr, texts)
    return hr, statistics.median(pus), statistics.median(raws)


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    import probe
    import workloads

    try:
        import hyperring
    except ImportError as exc:
        print(f"cannot import the workbench from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(hyperring.__file__).resolve().parents[1] != ROOT / "src":
        print(f"hyperring was imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2

    meter = probe.Meter()
    workload = workloads.WORKLOADS[args.workload](args)
    hr, setup_pu, setup_raw = set_up(meter, workload)

    # with --trace 1, untraced and traced passes alternate, untraced first
    timed, traced, digests, errors = [], [], set(), Counter()
    attempted = failed = 0
    tracer = outputs = None
    start = time.perf_counter()
    while len(timed) + len(traced) < 2 or time.perf_counter() - start < args.seconds:
        rec = workloads.Recorder()
        if args.trace and len(timed) > len(traced):
            import tracing

            tracer = rec.tracer = tracing.Tracer(hr, meter.work_clock)
            tracer.install()
        outputs = None
        gc.collect()
        try:
            with meter.span() as span:
                outputs = workload.run_pass(rec)
        finally:
            if rec.tracer is not None:
                rec.tracer.uninstall()
        (timed if rec.tracer is None else traced).append(span)
        digests.add(workload.digest(outputs))
        attempted += rec.attempted
        failed += rec.failed
        errors.update(rec.errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(outputs)
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct outputs")
    problems += [
        f"unexpected failure: {call} {exc} on {name} x{n}"
        for (call, exc, name), n in sorted(errors.items(), key=str)
        if not workload.known_failure(call, exc, name)
    ]

    pass_pu = statistics.median(p.pu for p in timed)
    probe_ms = statistics.median(t for p in timed + traced for t in p.probe_times) * 1e3
    print(f"workload {args.workload}: seed {args.seed}, {len(timed)} untraced passes")
    print(f"  pu per pass: {' '.join(f'{p.pu:.1f}' for p in timed)}")
    print(f"  raw seconds per pass: {statistics.median(p.seconds for p in timed):.4f}")
    print(f"  raw set-up seconds: {setup_raw:.4f}")
    print(f"  probe ms: {probe_ms:.4f}")
    print(f"  operations attempted {attempted}, failed {failed}")
    by_call = Counter()
    for (call, exc, _), n in errors.items():
        by_call[f"{call} {exc}"] += n
    for k, n in sorted(by_call.items()):
        print(f"    failed: {k} x{n}")
    print(f"  checks: {'all passed' if not problems else f'{len(problems)} problem(s)'}")
    for p in problems[:20]:
        print(f"    {p}")

    if args.trace:
        import tracing

        texts = inputs.read_catalog(workload.manifest)
        catalog = [hr.parse_structure(t) for t in texts.values()]
        layers = tracing.layer_metrics(tracer.spans, traced[-1].cpu_seconds, workload.cells(outputs))
        layers.update(tracing.lookup_costs(meter, catalog, args.lookup_seed))
        overhead = statistics.median(p.pu for p in traced) / pass_pu
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = layers
    else:
        metrics = {
            "setup_s": (setup_pu * probe.REFERENCE_PU_S, "s"),
            "pass_pu": (pass_pu, "pu"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    status = 0
    summary = []
    for name in ("build", "audit", "query"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--table-seed", str(args.table_seed),
               "--lookup-seed", str(args.lookup_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=_env())
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        summary.append((name, result))
    print("summary:")
    for name, r in summary:
        figures = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"  {name}: correct {r['correct']}, attempted {r['attempted']},"
              f" failed {r['failed']}; {figures}")
    return status


def _env() -> dict:
    return {**os.environ, "PYTHONHASHSEED": "0"}


def main() -> int:
    args = parse_args(sys.argv[1:])
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], _env())
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
