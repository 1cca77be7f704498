#!/usr/bin/env python3
"""Every committed stream reference through the program.

    python3 scripts/check_stream_references.py

For each stream workload of the benchmark (``perfbench/workloads.py``) and
each seed with committed reference taus (``perfbench/references/``), this
runs every request of the seed's cycle through ``spin_flip_rate`` at the
default settings and checks its tau against the reference to
``workloads.CHECK_TOL``.  It prints, per stream, the rates checked, the
misses, the worst relative deviation, the largest estimated relative error
(``est_error``), the rates whose deviation exceeds their own ``est_error``,
and the refinements and integrand evaluations per rate.  It exits 1 on any
miss and on any rate beyond its own ``est_error``: an estimate below the
true error would let the quadrature stop short.  The benchmark's own
``--self-check`` probes 32 requests; this covers all of them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as W  # noqa: E402
from spinflip import spin_flip_rate  # noqa: E402


def check(stream: str) -> int:
    seeds = json.loads((W.REFERENCE_DIR / f"{stream}.json").read_text("utf-8"))["seeds"]
    rates = misses = underestimates = refinements = evaluations = 0
    worst = largest_estimate = 0.0
    for seed, taus in seeds.items():
        for request, ref in zip(W.requests(stream, int(seed)), taus, strict=True):
            result = spin_flip_rate(request.stack(), request.z, T=request.T)
            rates += 1
            misses += not W.tau_ok(result.tau, ref)
            deviation = abs(result.tau - ref) / ref
            worst = max(worst, deviation)
            largest_estimate = max(largest_estimate, result.diagnostics.est_error)
            underestimates += deviation > result.diagnostics.est_error
            refinements += result.diagnostics.refinements
            evaluations += result.diagnostics.evaluations
    print(f"{stream}: seeds {','.join(seeds)}, {rates} rates, {misses} misses of "
          f"{W.CHECK_TOL:g}, worst {worst:.2e}, largest est_error {largest_estimate:.2e}, "
          f"{underestimates} beyond their est_error, {refinements / rates:.4f} refinements "
          f"and {evaluations / rates:.1f} evaluations per rate")
    return misses + underestimates


if __name__ == "__main__":
    sys.exit(1 if sum(check(stream) for stream in W.STREAMS) else 0)
