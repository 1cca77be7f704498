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
the share of rates that refine, and the refinements and integrand
evaluations per rate.  It exits 1 on any miss and on any rate beyond its own
``est_error``: an estimate below the true error would let the quadrature stop
short.  The benchmark's own ``--self-check`` probes 32 requests; this covers
all of them.

No rate refines at the default settings, so a second pass runs seed 0 of
each stream at rel_tol 1e-12 with up to 1,000 refinements, where most rates
split, and exits 1 on any miss there too.  Its ``est_error`` is not gated:
the references are themselves computed at rel_tol 1e-12, so a deviation of a
few 1e-14 is theirs, and at seed 0 two ``rates`` rates deviate by slightly
more than an estimate of that size.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as W  # noqa: E402
from spinflip import spin_flip_rate  # noqa: E402
from spinflip.quadrature import DEFAULT_SETTINGS, QuadratureSettings  # noqa: E402

REFINING = QuadratureSettings(rel_tol=1e-12, max_refinements=1000)


def check(stream: str, seeds: dict, settings: QuadratureSettings) -> tuple[int, int]:
    """(misses, rates beyond their est_error) of the given seeds' references."""
    rates = misses = underestimates = refining = refinements = evaluations = 0
    worst = largest_estimate = 0.0
    for seed, taus in seeds.items():
        for request, ref in zip(W.requests(stream, int(seed)), taus, strict=True):
            result = spin_flip_rate(request.stack(), request.z, T=request.T, settings=settings)
            rates += 1
            misses += not W.tau_ok(result.tau, ref)
            deviation = abs(result.tau - ref) / ref
            worst = max(worst, deviation)
            largest_estimate = max(largest_estimate, result.diagnostics.est_error)
            underestimates += deviation > result.diagnostics.est_error
            refining += result.diagnostics.refinements > 0
            refinements += result.diagnostics.refinements
            evaluations += result.diagnostics.evaluations
    print(f"{stream} at rel_tol {settings.rel_tol:g}: seeds {','.join(seeds)}, {rates} rates, "
          f"{misses} misses of {W.CHECK_TOL:g}, worst {worst:.2e}, largest est_error "
          f"{largest_estimate:.2e}, {underestimates} beyond their est_error, "
          f"{refining / rates:.1%} refine, {refinements / rates:.4f} refinements "
          f"and {evaluations / rates:.1f} evaluations per rate")
    return misses, underestimates


if __name__ == "__main__":
    failures = 0
    for stream in W.STREAMS:
        seeds = json.loads((W.REFERENCE_DIR / f"{stream}.json").read_text("utf-8"))["seeds"]
        failures += sum(check(stream, seeds, DEFAULT_SETTINGS))
        failures += check(stream, {"0": seeds["0"]}, REFINING)[0]
    sys.exit(1 if failures else 0)
