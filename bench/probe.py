"""Probe-normalised timing.

On a shared VM the speed of the CPU a run gets changes from second to
second, by up to half, and the hypervisor takes the CPU away for part of
the time.  The probe is a fixed kernel of the same kind of work as the
workbench's inner loops (tuple sorting, dict lookups, frozenset unions),
stdlib only, about a millisecond long.  While a span of work is timed, a
one-shot interval timer interrupts it every ``INTERVAL_S`` and runs the
probe inside the signal handler, so probe samples are taken right beside
every stretch of the timed work, including the inside of one long call.
Stretches and probes are measured in the thread's CPU time, which leaves
out the time the CPU was taken away; the work between two consecutive
probes (probe time itself excluded) is divided by the mean of those two
probe times, and a span's cost in probe units (pu) is the sum over its
stretches.  One pu is one run of the probe.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from itertools import product

INTERVAL_S = 0.05
# Reference duration of one pu, used to quote set-up cost in seconds at a
# fixed machine speed: the probe's median time on the machine the README's
# figures come from, rounded.
REFERENCE_PU_S = 0.001


def _probe_data():
    rng = random.Random(20211020)
    keys = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(1500)]
    table = {
        k: frozenset(rng.sample(range(5), rng.randrange(1, 4)))
        for k in product(range(5), repeat=3)
        if list(k) == sorted(k)
    }
    return keys, table


_KEYS, _TABLE = _probe_data()


def probe_kernel() -> int:
    acc = frozenset()
    total = 0
    for k in _KEYS:
        acc = acc | _TABLE[tuple(sorted(k))]
        total += len(acc)
    return total


def time_probe() -> float:
    """CPU seconds one probe run takes, with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        probe_kernel()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def normalise(stretches, probes) -> float:
    """Probe units of a span: ``stretches[i]`` is the work time between
    probe ``i`` and probe ``i + 1``; each is divided by the mean of the two
    probe times around it."""
    if len(probes) != len(stretches) + 1:
        raise ValueError("a span of k stretches needs k + 1 probes")
    return sum(w / ((a + b) / 2) for w, a, b in zip(stretches, probes, probes[1:]))


class Meter:
    """Times spans of work in probe units.

    ``span()`` returns a context manager; on exit its ``pu``, ``seconds``
    (wall time), ``cpu_seconds`` (thread CPU time) and ``probe_times`` are
    set, probe time excluded from both times.  The meter
    owns SIGALRM from its creation on; only one span runs at a time, and
    only in the main thread.
    """

    def __init__(self):
        self.probe_total = 0.0  # thread CPU seconds spent probing, ever
        self._span = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def work_clock(self) -> float:
        """The thread's CPU time with the time spent in probes taken out."""
        return time.thread_time() - self.probe_total

    def _probe(self) -> None:
        span = self._span
        cpu, wall = time.thread_time(), time.perf_counter()
        span.stretches.append(cpu - span.cpu_mark)
        span.wall_stretches.append(wall - span.wall_mark)
        span.probe_times.append(time_probe())
        span.cpu_mark = time.thread_time()
        span.wall_mark = time.perf_counter()
        self.probe_total += span.cpu_mark - cpu

    def _on_alarm(self, signum, frame) -> None:
        if self._span is not None:
            self._probe()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def span(self) -> "Span":
        return Span(self)


class Span:
    def __init__(self, meter: Meter):
        self.meter = meter
        self.stretches: list = []  # thread CPU seconds between probes
        self.wall_stretches: list = []
        self.probe_times: list = []
        self.pu = self.seconds = self.cpu_seconds = 0.0

    def __enter__(self) -> "Span":
        m = self.meter
        if m._span is not None:
            raise RuntimeError("spans do not nest")
        cpu = time.thread_time()
        self.probe_times.append(time_probe())
        self.cpu_mark = time.thread_time()
        self.wall_mark = time.perf_counter()
        m.probe_total += self.cpu_mark - cpu
        m._span = self
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        m = self.meter
        signal.setitimer(signal.ITIMER_REAL, 0)
        m._probe()
        m._span = None
        self.seconds = sum(self.wall_stretches)
        self.cpu_seconds = sum(self.stretches)
        self.pu = normalise(self.stretches, self.probe_times)
