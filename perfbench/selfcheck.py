"""Checks of the benchmark itself (``python3 perfbench/run.py --self-check``).

1. The correctness gate has teeth: with the true references no rate fails;
   with one reference moved by ten times ``CHECK_TOL`` the run counts a
   failure, for a stream, for a figures row and (through the screening
   factor) for a thickness curve's bare-substrate rate.
2. Counters repeat exactly: two traced runs of the same inputs give the same
   count metrics.
3. Counts of a rate that does not refine, compared with those of the commit
   that defined the benchmark.  A change to the quadrature rule or to the
   coefficient path moves them on purpose, so a difference is reported,
   not failed.
"""

from __future__ import annotations

import copy
import shutil
import tempfile

import numpy as np

import run
import spans
import workloads as W

PROBE_REQUESTS = 32
# Per non-refining rate at the defining commit: evaluations, panels,
# integrand calls, coefficient calls, layer_wavevectors and permittivity calls.
SEED_NON_REFINING = (279, 9, 18, 18, 54, 54)
COUNT_METRICS = ("quadrature.evals_per_rate", "quadrature.panels_per_rate",
                 "quadrature.refinements_per_rate", "quadrature.refining_share",
                 "quadrature.integrand_calls_per_rate",
                 "quadrature.points_per_integrand_call", "quadrature.est_error_max",
                 "rates.anisotropic_share", "stratified.coeff_calls_per_rate",
                 "stratified.layer_wavevectors_calls_per_rate",
                 "materials.permittivity_calls_per_rate")


def _failures(inputs: run.Inputs, out_dir) -> int:
    return inputs.run(0.0, out_dir, for_trace=True).failed


def _stream_inputs(workload: str) -> run.Inputs:
    inputs = run.Inputs(workload, 0)
    inputs.items = inputs.items[:PROBE_REQUESTS]
    inputs.refs = inputs.refs[:PROBE_REQUESTS]
    return inputs


def check_gate(out_dir) -> list[str]:
    problems = []
    shift = 1.0 + 10 * W.CHECK_TOL
    for workload in W.STREAMS:
        inputs = _stream_inputs(workload)
        if _failures(inputs, out_dir):
            problems.append(f"{workload}: failures with the true references")
        inputs.refs[PROBE_REQUESTS // 2] *= shift
        if _failures(inputs, out_dir) != 1:
            problems.append(f"{workload}: a perturbed reference was not caught")

    inputs = run.Inputs("figures", 0)
    true_curves = inputs.curves
    if _failures(inputs, out_dir):
        problems.append("figures: failures with the true references")
    thickness = next(i for i, c in enumerate(true_curves) if c["tau0"] is not None)
    row, tau0 = copy.deepcopy(true_curves), copy.deepcopy(true_curves)
    row[0]["tau"][7] *= shift
    # The screening factor a tau0 off by the same shift would give.
    s = tau0[thickness]["screening"]
    s[7] = (1.0 + s[7]) * shift - 1.0
    for what, curves in (("row tau", row), ("tau0", tau0)):
        inputs.curves = curves
        if not _failures(inputs, out_dir):
            problems.append(f"figures: a perturbed {what} was not caught")
    return problems


def _traced(inputs: run.Inputs, out_dir):
    rec = spans.Recorder()
    with spans.patched(rec) as traced_rate:
        inputs.run(0.0, out_dir, call=traced_rate, for_trace=True)
    return rec


def non_refining_counts(rec: spans.Recorder) -> set[tuple]:
    """Distinct per-rate count tuples (as SEED_NON_REFINING) of the rates
    that did not refine."""
    rate = np.frombuffer(rec.rate, dtype=np.int64)
    name = np.frombuffer(rec.name, dtype=np.int8)
    n = len(rec.rates) + 1
    per_name = {k: np.bincount(rate[name == spans.NAMES.index(k)], minlength=n)
                for k in (spans.INTEGRAND, spans.COEFF, spans.WAVEVECTORS,
                          spans.PERMITTIVITY)}
    return {(ev, panels) + tuple(int(per_name[k][i + 1]) for k in per_name)
            for i, (ev, panels, refinements, _, _) in enumerate(rec.rates)
            if refinements == 0}


def check_counts(out_dir) -> tuple[list[str], set[tuple]]:
    problems, seen = [], set()
    for workload in W.WORKLOADS:
        inputs = run.Inputs(workload, 0) if workload == "figures" else _stream_inputs(workload)
        first, second = (_traced(inputs, out_dir) for _ in range(2))
        a, b = (spans.layer_metrics(r, 0, 0) for r in (first, second))
        differ = [k for k in COUNT_METRICS if a[k] != b[k]]
        if differ:
            problems.append(f"{workload}: counts differ between traced runs: {differ}")
        seen |= non_refining_counts(first)
    return problems, seen


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT)
    try:
        problems = check_gate(run.Path(out_dir))
        count_problems, seen = check_counts(run.Path(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems += count_problems
    for p in problems:
        print(f"FAIL {p}")
    print("correctness gate and counter repeatability:",
          "ok" if not problems else f"{len(problems)} problem(s)")
    verdict = "match" if seen == {SEED_NON_REFINING} else "DIFFER from"
    print(f"non-refining rate counts (evals, panels, integrand, coeff, "
          f"layer_wavevectors, permittivity): {sorted(seen)} -- {verdict} "
          f"the defining commit's {SEED_NON_REFINING}")
    return 1 if problems else 0
