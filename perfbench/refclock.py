"""Times rescaled to a reference machine speed.

On a shared machine the CPU speed one process sees drifts by tens of percent
within a second (co-tenants, busy SMT siblings, frequency changes), and a
20-second run can land in a slow or a fast phase.  To measure the program
rather than the machine, work is timed in short segments.  After each
segment a fixed calibration kernel, which does not touch spinflip, runs
untimed, and the segment's wall times are multiplied by
``NOMINAL_NS / kernel time``, the kernel time averaged over the runs on
either side of the segment.  A rescaled time reads as it would on a machine
where the kernel takes ``NOMINAL_NS``; raw wall times are kept alongside.

The kernel does what the package's inner loop does: square roots of small
complex numpy arrays with a branch fold, a guard, quotients and an
exponential, under Python-level iteration.
"""

from __future__ import annotations

import time

import numpy as np

KERNEL_REPS = 200
# About the kernel's time on the 2-core Xeon the benchmark was defined on.
NOMINAL_NS = 4.0e6
_ETA = np.linspace(0.05, 3.0, 16)


def kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_REPS):
        eta = _ETA * (1.0 + 1e-3 * (i % 7))
        h = np.sqrt((0.5 + 2e3j) - eta**2)
        h = np.where(h.imag < 0, -h, h)
        if np.any(np.abs(h) == 0):
            raise ArithmeticError("calibration kernel hit a zero")
        r = (h - eta) / (h + eta)
        acc += float((r * np.exp(-2.0 * eta)).imag.sum())
    return acc


def kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


class RefClock:
    """Segmented timer.  Call ``begin`` when timed work starts, ``record``
    after each batch of rates with their (wall latency, request) pairs, and
    ``close`` where timed work stops; a segment also closes by itself after
    a batch that brings it to ``segment`` rates."""

    def __init__(self, segment: int):
        self.segment = segment
        self.latency_ms = []        # rescaled, per rate
        self.raw_latency_ms = []    # wall, per rate
        self.by_request = {}        # request -> rescaled latencies (ms)
        self.segments = []          # (rates, wall ns, rescaled ns)
        self._pending = []
        self._kernel = kernel_ns()
        self.begin()

    def begin(self) -> None:
        self._start = time.perf_counter_ns()

    def record(self, rates) -> None:
        self._pending.extend(rates)
        if len(self._pending) >= self.segment:
            self.close()

    def close(self) -> None:
        raw = time.perf_counter_ns() - self._start
        k = kernel_ns()
        scale = NOMINAL_NS / (0.5 * (self._kernel + k))
        self._kernel = k
        for ns, request in self._pending:
            self.raw_latency_ms.append(ns / 1e6)
            self.latency_ms.append(ns * scale / 1e6)
            self.by_request.setdefault(request, []).append(ns * scale / 1e6)
        self.segments.append((len(self._pending), raw, raw * scale))
        self._pending = []
        self.begin()

    def rescaled_ns(self, first_segment: int = 0) -> float:
        return sum(s[2] for s in self.segments[first_segment:])

    def raw_ns(self) -> float:
        return sum(s[1] for s in self.segments)


def rescale_ns(fn) -> tuple[float, int]:
    """(rescaled, wall) time of ``fn()``, with the kernel run before and
    after it."""
    before = kernel_ns()
    t0 = time.perf_counter_ns()
    fn()
    raw = time.perf_counter_ns() - t0
    after = kernel_ns()
    return raw * NOMINAL_NS / (0.5 * (before + after)), raw
