#!/usr/bin/env python3
"""The spinflip benchmark: one process, one closed-loop caller.

    python3 perfbench/run.py --workload {figures,rates,near_metal} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it runs the same inputs untraced for half the time and traced
for the other half and reports the per-layer metrics.  Every rate is checked
against its reference tau.  A human-readable report (with sample counts and
the failed share) precedes the last line of standard output, which is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in probe children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

# Rates per timed segment; the calibration kernel runs between segments
# (see refclock.py), and a stream's rates_per_s is the median segment rate.
SEGMENT = 16
# Requests of a stream cycle that a traced run (and its untraced twin) repeats.
TRACE_PREFIX = 128
# Fresh interpreters timed for setup_s (after one untimed warm-up probe).
SETUP_PROBES = 7


def _import_program():
    try:
        import spinflip
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import spinflip from {SRC}: {exc}")
    if Path(spinflip.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: spinflip was imported from {spinflip.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

import spinflip  # noqa: E402
from spinflip import SpinflipError, figures  # noqa: E402

import refclock  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

clock = time.perf_counter_ns


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """What a fresh interpreter does before its first result: import the
    package and its CLI, build the workload's inputs, run one rate."""
    import spinflip.cli  # noqa: F401  (the CLI shell's import cost)
    if workload == "figures":
        _, _, config, _ = W.figure_configs()[0]
        spinflip.spin_flip_rate(config.stack, config.z, config.transition)
    else:
        items = stream_items(W.requests(workload, seed))
        stack, z, T = items[0]
        spinflip.spin_flip_rate(stack, z, T=T)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Rescaled and wall seconds of each timed setup probe."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]

    def probe():
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    probe()
    times = [refclock.rescale_ns(probe) for _ in range(SETUP_PROBES)]
    return [t / 1e9 for t, _ in times], [raw / 1e9 for _, raw in times]


def stream_items(reqs):
    return [(r.stack(), r.z, r.T) for r in reqs]


# ---------------------------------------------------------------------------
# measured loops
# ---------------------------------------------------------------------------

class Tally:
    """Outcome of a measured loop: rates attempted and failed, the segment
    clock holding latencies and times, and the throughput (1/s, rescaled)
    of each segment (streams) or pass (figures)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.clock = refclock.RefClock(SEGMENT)
        self.throughput = []

    def rate_per_ns(self) -> float:
        return self.attempted / self.clock.rescaled_ns()


def run_stream(call, items, refs, seconds: float, whole_passes: bool) -> Tally:
    """Send the requests in order, cycling, until `seconds` of wall time
    have passed (at the end of a whole pass over `items` when
    `whole_passes`)."""
    tally = Tally()
    n = len(items)
    i = 0
    deadline = clock() + int(seconds * 1e9)
    tally.clock.begin()
    while True:
        stack, z, T = items[i % n]
        t0 = clock()
        try:
            tau = call(stack, z, T=T).tau
        except SpinflipError:
            tau = None
        t1 = clock()
        tally.clock.record(((t1 - t0, i % n),))
        tally.failed += not W.tau_ok(tau, refs[i % n])
        i += 1
        if t1 >= deadline and not (whole_passes and i % n):
            break
    tally.clock.close()
    tally.attempted = i
    tally.throughput = [k * 1e9 / ns for k, _, ns in tally.clock.segments if k == SEGMENT]
    return tally


@contextmanager
def timed_curves(ref_clock: refclock.RefClock):
    """Time each curve's ``run_sweep``.  Every rate of the curve (its rows,
    and the bare-substrate rate of a thickness sweep) is given the curve's
    time per rate, since the sweep is free to evaluate rows together.  Rates
    are numbered in the order the pass runs them."""
    inner = figures.run_sweep
    numbered = 0

    def timed(spec, config):
        nonlocal numbered
        t0 = clock()
        table = inner(spec, config)
        n = spec.points + (spec.axis == "thickness_d")
        per_rate = (clock() - t0) / n
        ref_clock.record((per_rate, numbered + k) for k in range(n))
        numbered += n
        return table

    figures.run_sweep = timed
    try:
        yield
    finally:
        figures.run_sweep = inner


def run_figures(out_dir: Path, curves, seconds: float) -> Tally:
    """Whole passes of fig2..fig5 through figures.reproduce until `seconds`
    of wall time have passed (at least one).  The written CSVs are checked
    against the references after each pass, untimed."""
    tally = Tally()
    rates = len(W.figure_rate_taus(curves))
    deadline = clock() + int(seconds * 1e9)
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        first = len(tally.clock.segments)
        with timed_curves(tally.clock):
            tally.clock.begin()
            try:
                for name in figures.FIGURES:
                    figures.reproduce(name, out_dir)
            except SpinflipError:
                pass    # the curves left unwritten fail the check below
            tally.clock.close()
        tally.attempted += rates
        tally.failed += len(W.check_figure_csvs(out_dir, curves))
        tally.throughput.append(rates * 1e9 / tally.clock.rescaled_ns(first))
        if clock() >= deadline:
            break
    return tally


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Inputs:
    """A workload's inputs and references."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        if workload == "figures":
            self.curves = W.figure_references()
        else:
            reqs = W.requests(workload, seed)
            self.items = stream_items(reqs)
            self.refs = W.stream_references(workload, seed, reqs)

    def run(self, seconds: float, out_dir: Path, call=None, for_trace: bool = False) -> Tally:
        """Measured loop.  `for_trace` runs whole passes over a fixed prefix
        (streams) so that counts are exact."""
        if self.workload == "figures":
            return run_figures(out_dir, self.curves, seconds)
        n = TRACE_PREFIX if for_trace else len(self.items)
        return run_stream(call or spinflip.spin_flip_rate, self.items[:n],
                          self.refs[:n], seconds, whole_passes=for_trace)

    def warm_up(self) -> None:
        if self.workload == "figures":
            _, _, config, spec = W.figure_configs()[0]
            spinflip.run_sweep(spec, config)
        else:
            for stack, z, T in self.items[:4 * SEGMENT]:
                spinflip.spin_flip_rate(stack, z, T=T)


def end_to_end(inputs: Inputs, seed: int, seconds: float, out_dir: Path):
    """End-to-end metrics, and their wall-clock counterparts for the report."""
    setup, setup_raw = measure_setup(inputs.workload, seed)
    inputs.warm_up()
    tally = inputs.run(seconds, out_dir)
    ck = tally.clock
    n = len(ck.latency_ms)
    # The tail is taken over requests, each at the median of its repeats, so
    # that it measures the slow requests of the mix, not machine spikes.
    per_request = [statistics.median(v) for v in ck.by_request.values()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "rates_per_s": (statistics.median(tally.throughput), "1/s", len(tally.throughput)),
        "rate_ms_p50": (statistics.median(ck.latency_ms), "ms", n),
        "rate_ms_p98": (float(np.percentile(per_request, 98)), "ms", len(per_request)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    wall = {
        "rates_per_s": tally.attempted * 1e9 / ck.raw_ns(),
        "rate_ms_p50": statistics.median(ck.raw_latency_ms),
        "setup_s": statistics.median(setup_raw),
    }
    return tally, metrics, wall


def per_layer(inputs: Inputs, seed: int, seconds: float, out_dir: Path):
    inputs.warm_up()
    plain = inputs.run(seconds / 2, out_dir, for_trace=True)
    rec = spans.Recorder()
    with spans.patched(rec) as traced_rate:
        traced = inputs.run(seconds / 2, out_dir, call=traced_rate, for_trace=True)
    rows = curves = 0
    if inputs.workload == "figures":
        passes = traced.attempted // len(W.figure_rate_taus(inputs.curves))
        rows = passes * sum(len(c["tau"]) for c in inputs.curves)
        curves = passes * len(inputs.curves)
    layer = spans.layer_metrics(rec, rows=rows, curves=curves)
    layer["trace.overhead_frac"] = (1.0 - traced.rate_per_ns() / plain.rate_per_ns(), "frac")
    rec.write(OUT / f"trace-{inputs.workload}-seed{seed}.npz")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    metrics = {k: (v, unit, len(rec.rates)) for k, (v, unit) in layer.items()}
    return plain, metrics, {}


def report(workload: str, seed: int, tally: Tally, metrics: dict, wall: dict) -> None:
    correct = tally.failed == 0
    print(f"spinflip benchmark: workload={workload} seed={seed} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / tally.attempted:.6g}")
    for name, (value, unit, n) in metrics.items():
        extra = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:45s} {value:14.6g} {unit:10s} n={n}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=W.WORKLOADS, default="rates")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="verify the benchmark's own checks and counters")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.self_check:
        import selfcheck
        return selfcheck.main()

    inputs = Inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        measure = per_layer if args.trace else end_to_end
        tally, metrics, wall = measure(inputs, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report(args.workload, args.seed, tally, metrics, wall)
    return 0


if __name__ == "__main__":
    sys.exit(main())
