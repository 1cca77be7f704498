#!/usr/bin/env python3
"""Regenerate the committed reference taus and spot-check them.

    python3 perfbench/refs.py [--seeds 0-9]

References are computed with the package at rel_tol = 1e-12 (refinement
budget 1000) for every figure rate and for the request cycles of the given
seeds.  A sample of them is then recomputed independently: the integrand
the package hands to its quadrature is integrated again with
``scipy.integrate.quad``, and the two integrals must agree to 1e-9.  The
script also prints how far default-tolerance rates sit from their
references, the margin behind ``workloads.CHECK_TOL``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import run  # noqa: F401  (pins threads and puts src/ on sys.path)

import numpy as np
from scipy import integrate

import spinflip.rates
import spinflip.sweep
from spinflip import spin_flip_rate

import workloads as W

SPOT_CHECKS = 12          # per workload
SPOT_TOL = 1e-9


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _dump(path, payload) -> None:
    path.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")


def scipy_integral(stack, z, T) -> tuple[float, float]:
    """(package integral at reference settings, scipy.integrate.quad
    integral) of the rate integrand of one request."""
    grabbed = {}
    quad = spinflip.rates.integrate_semi_infinite

    def grab(integrand, z_, settings):
        value, diag = quad(integrand, z_, settings)
        grabbed.update(f=integrand, value=value)
        return value, diag

    spinflip.rates.integrate_semi_infinite = grab
    try:
        spin_flip_rate(stack, z, T=T, settings=W.REFERENCE_SETTINGS)
    finally:
        spinflip.rates.integrate_semi_infinite = quad
    f, scale = grabbed["f"], 1.0 / (2.0 * z)

    def g(u):
        return float(f(np.array([u * scale]))[0]) * scale

    # Substituted variable u = 2 eta z; split where the integrand changes
    # scale so quad's first bisections land on the structure.
    # quad warns when it cannot reach 1e-13; the comparison below decides.
    edges = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total = math.fsum(integrate.quad(g, a, b, epsabs=0, epsrel=1e-13, limit=400)[0]
                          for a, b in zip(edges[:-1], edges[1:]))
    return grabbed["value"], total


def spot_check(label: str, cases) -> float:
    worst = 0.0
    for stack, z, T in cases:
        ours, theirs = scipy_integral(stack, z, T)
        worst = max(worst, abs(ours - theirs) / abs(theirs))
    print(f"{label}: scipy.integrate.quad agrees to {worst:.2e} over {len(cases)} rates")
    return worst


def figure_rate_inputs() -> list[tuple]:
    """(stack, z, T) of every rate the figure sweeps run, in call order."""
    calls = []
    inner = spinflip.sweep.spin_flip_rate

    def grab(stack, z, transition, T, settings):
        calls.append((stack, z, stack.temperature if T is None else T))
        return inner(stack, z, transition, T, settings)

    spinflip.sweep.spin_flip_rate = grab
    try:
        for _, _, config, spec in W.figure_configs():
            spinflip.sweep.run_sweep(spec, config)
    finally:
        spinflip.sweep.spin_flip_rate = inner
    return calls


def default_deviation(items, refs) -> float:
    return max(abs(spin_flip_rate(s, z, T=T).tau - r) / r
               for (s, z, T), r in zip(items, refs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="seed range, e.g. 0-9")
    args = parser.parse_args(argv)
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    meta = {"rel_tol": W.REFERENCE_SETTINGS.rel_tol,
            "max_refinements": W.REFERENCE_SETTINGS.max_refinements,
            "spinflip": spinflip.__version__}
    worst = 0.0

    curves = W.compute_figure_references()
    _dump(W.REFERENCE_DIR / "figures.json", {**meta, "curves": curves})
    items, refs = figure_rate_inputs(), W.figure_rate_taus(curves)
    print(f"figures: {len(refs)} rates; default tolerance within "
          f"{default_deviation(items, refs):.2e} of the references")
    worst = max(worst, spot_check("figures", items[::len(items) // SPOT_CHECKS][:SPOT_CHECKS]))

    for workload in W.STREAMS:
        seeds = {}
        for seed in _seed_range(args.seeds):
            reqs = W.requests(workload, seed)
            seeds[str(seed)] = W.stream_references(workload, seed, reqs, committed=False)
        _dump(W.REFERENCE_DIR / f"{workload}.json", {**meta, "seeds": seeds})
        first = next(iter(seeds))
        items = [(r.stack(), r.z, r.T) for r in W.requests(workload, int(first))]
        print(f"{workload}: seeds {', '.join(seeds)}; default tolerance within "
              f"{default_deviation(items, seeds[first]):.2e} of the references")
        worst = max(worst, spot_check(workload, items[::len(items) // SPOT_CHECKS][:SPOT_CHECKS]))

    if worst > SPOT_TOL:
        print(f"FAIL: a reference differs from scipy by {worst:.2e} > {SPOT_TOL:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
