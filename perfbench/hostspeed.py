"""The timed loops' clock, and a gauge of how fast the shared host runs.

The hosts this benchmark targets hand it a share of a machine whose speed
changes with its neighbours' load: a fixed loop of small numpy calls runs
up to 1.8x slower for stretches of under a second to several minutes, and
the slow stretches are on-CPU time (thread CPU time grows with wall time),
so no process-local setting avoids them. A 30-s run can fall wholly in a
slow or a fast stretch, and its raw timings then differ by as much.

So the timed loops interleave a fixed probe kernel (``Probe``) with the
program, every ``PROBE_GAP_S`` of run time, and take each probe off the
clock. A probe's time divided by its reference time is the host's
*slowdown* at that moment, and each iteration's latency is divided by the
slowdown around it (``HostClock.adjust``). Iteration timings are so
reported in reference seconds: the time the run would have taken on the
host that gave the probe's reference time, in its fast state. A change to
the program moves its timings and not the probe's, so the adjusted timings
move by the same share as the raw ones. The raw figures are kept in the
run's record and report.

The probe mixes matrix products, elementwise calls, a slice update and a
float conversion, like the program's forward, on arrays of the workload's
batch shape, because the slow stretches slow call-bound code on small
arrays more than arithmetic on large ones. A single set-up (imports,
process start) tracks the probes around it loosely, so the harness divides
the median of set-ups spread over a run by the slowdown of the whole run:
raw, the set medians of two sets of 10 eval-rollout runs were 31% apart, and
adjusted so, 4%.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

PROBE_GAP_S = 0.025  # run time between two probes


class Probe:
    """A fixed loop of ~300 numpy calls on ``rows`` x ``width`` arrays.

    ``ref_s`` is its time on the reference host, which defines 1 ref s.
    """

    def __init__(self, rows: int, width: int, ref_s: float):
        rng = np.random.default_rng(0x9B0BE)
        self.w1 = rng.normal(size=(width, width)) / 6.0
        self.w2 = rng.normal(size=(width, width)) / 6.0
        self.x0 = rng.normal(size=(rows, width))
        self.ref_s = ref_s

    def kernel(self) -> float:
        x, s = self.x0, 0.0
        for _ in range(30):
            h = np.tanh(x @ self.w1 + 0.1)
            x = np.maximum(h @ self.w2, 0.0) - 0.5 * x
            x[:, :2] *= 0.5
            s += float(x.sum())
        return s

    def __call__(self) -> float:
        """Time of one kernel on warm caches, in s.

        A first, untimed run warms them: right after the program's work a
        cold kernel ran 8% (eval) to 43% (train) slower than a warm one, and
        that penalty would follow the program's cache footprint, not the
        host."""
        self.kernel()
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0


class HostClock:
    """``time.perf_counter`` minus the time spent in probes.

    ``maybe_probe`` runs a probe when ``PROBE_GAP_S`` of clock time has
    passed since the last one; the timed loops call it where a probe does
    not split a measured span (between train iterations, after an eval env
    step). With a tracer the probe is a ``bench.probe`` span, so it is no
    layer's self time.
    """

    def __init__(self, probe: Probe, tracer=None):
        self.probe = probe
        self.offset = 0.0
        self.last = -PROBE_GAP_S
        self.at: list[float] = []      # clock time of each probe
        self.probes: list[float] = []  # its duration, s
        self._span = ((lambda: tracer.span("bench.probe")) if tracer
                      else contextlib.nullcontext)

    def now(self) -> float:
        return time.perf_counter() - self.offset

    def maybe_probe(self) -> None:
        if self.now() - self.last < PROBE_GAP_S:
            return
        with self._span():
            t0 = time.perf_counter()
            self.probes.append(self.probe())
            self.offset += time.perf_counter() - t0
        self.last = self.now()
        self.at.append(self.last)

    def adjust(self, latencies, ends) -> np.ndarray:
        """Latencies (s, ending at clock times ``ends``) in reference s.

        Each is divided by the slowdown of the probes around its midpoint,
        interpolated in time: the slow stretches can be shorter than a run
        but are mostly longer than the gap between probes, and a median of
        latencies cannot be corrected after it is taken."""
        lat = np.asarray(latencies, dtype=float)
        mid = np.asarray(ends, dtype=float) - lat / 2
        return lat * self.probe.ref_s / np.interp(mid, self.at, self.probes)
