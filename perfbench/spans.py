"""Span tracing of spinflip from the outside.

Spans are recorded only here, by replacing module attributes at the sites
where the package looks them up (``from .x import y`` binds names per
module, so each site is patched separately).  A span holds a name, start and
end (ns), the id of the span that caused it and the id of the rate it serves
(0 outside any rate).  Spans stay in memory and are written out at the end.
A layer's self time is its span's duration minus the time its child spans
cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

import spinflip.figures
import spinflip.rates
import spinflip.stratified
import spinflip.sweep

RATE = "rate"
QUADRATURE = "quadrature"
INTEGRAND = "integrand"
COEFF = "coeff"
WAVEVECTORS = "layer_wavevectors"
PERMITTIVITY = "permittivity"
PARSE = "parse_config"
RUN_SWEEP = "run_sweep"
EMIT = "emit_csv"
NAMES = (RATE, QUADRATURE, INTEGRAND, COEFF, WAVEVECTORS, PERMITTIVITY,
         PARSE, RUN_SWEEP, EMIT)
_CODE = {name: i for i, name in enumerate(NAMES)}


class Recorder:
    """In-memory span store.  Span ids are 1-based; parent 0 is the root."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.rate = array("q")
        self.start = array("q")
        self.end = array("q")
        self.points = array("q")     # eta points of an integrand call, else 0
        self.rates = []              # per rate: (evaluations, panels,
                                     # refinements, est_error, anisotropic)
        self._stack = [0]
        self._rate_id = 0

    def _open(self, name: str, points: int = 0) -> int:
        sid = len(self.end) + 1
        self.name.append(_CODE[name])
        self.parent.append(self._stack[-1])
        self.rate.append(self._rate_id)
        self.points.append(points)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int):
        self.end[sid - 1] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count_points: bool = False):
        def traced(*args, **kwargs):
            sid = self._open(name, np.size(args[0]) if count_points else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    def rate_call(self, fn):
        """Wrap a rate entry point: one RATE span and one diagnostics record
        per call.  The record is appended even if the call raises, so span
        rate ids stay aligned."""
        def traced(stack, *args, **kwargs):
            self._rate_id = len(self.rates) + 1
            sid = self._open(RATE)
            diag = None
            try:
                result = fn(stack, *args, **kwargs)
                diag = result.diagnostics
                return result
            finally:
                self._close(sid)
                self._rate_id = 0
                self.rates.append(
                    (diag.evaluations, diag.panels, diag.refinements,
                     diag.est_error, stack.is_anisotropic) if diag else
                    (0, 0, 0, math.nan, stack.is_anisotropic))
        return traced

    def write(self, path) -> None:
        """Write the spans as a compressed numpy archive: one array per
        field, span i at index i - 1, names as codes into ``names``."""
        np.savez_compressed(path, names=np.array(NAMES), name=self.name,
                            parent=self.parent, rate=self.rate, start=self.start,
                            end=self.end, points=self.points,
                            rates=np.array(self.rates, dtype=float).reshape(-1, 5))


@contextmanager
def patched(recorder: Recorder):
    """Install the recorder at every layer boundary; restore on exit.
    Yields the traced ``spin_flip_rate`` for callers that bypass ``sweep``."""
    rates_mod, strat, sweep, figs = (spinflip.rates, spinflip.stratified,
                                     spinflip.sweep, spinflip.figures)
    quad = rates_mod.integrate_semi_infinite

    def integrate(integrand, *args, **kwargs):
        return quad(recorder.wrap(INTEGRAND, integrand, count_points=True),
                    *args, **kwargs)

    sites = [
        (sweep, "spin_flip_rate", recorder.rate_call(sweep.spin_flip_rate)),
        (rates_mod, "integrate_semi_infinite", recorder.wrap(QUADRATURE, integrate)),
        (rates_mod, "te_reflection", recorder.wrap(COEFF, rates_mod.te_reflection)),
        (rates_mod, "scattering_coefficients",
         recorder.wrap(COEFF, rates_mod.scattering_coefficients)),
        (strat, "layer_wavevectors", recorder.wrap(WAVEVECTORS, strat.layer_wavevectors)),
        (strat, "permittivity", recorder.wrap(PERMITTIVITY, strat.permittivity)),
        (figs, "parse_config", recorder.wrap(PARSE, figs.parse_config)),
        (figs, "run_sweep", recorder.wrap(RUN_SWEEP, figs.run_sweep)),
        (figs, "emit_csv", recorder.wrap(EMIT, figs.emit_csv)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
    try:
        for mod, attr, fn in sites:
            setattr(mod, attr, fn)
        yield recorder.rate_call(rates_mod.spin_flip_rate)
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def layer_metrics(rec: Recorder, rows: int, curves: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.  ``rows`` and ``curves``
    are the sweep rows and curves run while tracing (0 when the workload
    bypasses the sweep layer; its sweep metrics then read 0)."""
    name = np.frombuffer(rec.name, dtype=np.int8)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    dur = (np.frombuffer(rec.end, dtype=np.int64)
           - np.frombuffer(rec.start, dtype=np.int64)).astype(float)
    points = np.frombuffer(rec.points, dtype=np.int64)
    child = np.bincount(parent, weights=dur, minlength=len(dur) + 1)[1:]
    self_ns = dur - child

    def calls(n):
        return int(np.count_nonzero(name == _CODE[n]))

    def total(n, values):
        return float(values[name == _CODE[n]].sum())

    diag = np.array([r[:4] for r in rec.rates], dtype=float).reshape(-1, 4)
    n_rates = len(rec.rates)
    n_coeff, n_wv, n_perm = calls(COEFF), calls(WAVEVECTORS), calls(PERMITTIVITY)
    n_int = calls(INTEGRAND)

    def per(x, n):
        return x / n if n else 0.0

    return {
        "quadrature.evals_per_rate": (per(diag[:, 0].sum(), n_rates), "count/rate"),
        "quadrature.panels_per_rate": (per(diag[:, 1].sum(), n_rates), "count/rate"),
        "quadrature.refinements_per_rate": (per(diag[:, 2].sum(), n_rates), "count/rate"),
        "quadrature.refining_share": (per(float(np.count_nonzero(diag[:, 2])), n_rates), "frac"),
        "quadrature.integrand_calls_per_rate": (per(n_int, n_rates), "count/rate"),
        "quadrature.points_per_integrand_call": (
            per(total(INTEGRAND, points.astype(float)), n_int), "count/call"),
        "quadrature.est_error_max": (float(diag[:, 3].max()) if n_rates else 0.0, "rel"),
        "quadrature.self_ms_per_rate": (per(total(QUADRATURE, self_ns), n_rates) / 1e6, "ms"),
        "rates.integrand_ms_per_rate": (per(total(INTEGRAND, self_ns), n_rates) / 1e6, "ms"),
        "rates.self_ms_per_rate": (per(total(RATE, self_ns), n_rates) / 1e6, "ms"),
        "rates.anisotropic_share": (per(sum(r[4] for r in rec.rates), n_rates), "frac"),
        "stratified.coeff_calls_per_rate": (per(n_coeff, n_rates), "count/rate"),
        "stratified.coeff_us_per_call": (per(total(COEFF, self_ns), n_coeff) / 1e3, "us"),
        "stratified.layer_wavevectors_calls_per_rate": (per(n_wv, n_rates), "count/rate"),
        "stratified.layer_wavevectors_us_per_call": (per(total(WAVEVECTORS, dur), n_wv) / 1e3, "us"),
        "materials.permittivity_calls_per_rate": (per(n_perm, n_rates), "count/rate"),
        "materials.permittivity_us_per_call": (per(total(PERMITTIVITY, dur), n_perm) / 1e3, "us"),
        "sweep.parse_config_ms_per_curve": (per(total(PARSE, dur), curves) / 1e6, "ms"),
        "sweep.run_sweep_self_ms_per_row": (per(total(RUN_SWEEP, self_ns), rows) / 1e6, "ms"),
        "sweep.emit_csv_ms_per_curve": (per(total(EMIT, dur), curves) / 1e6, "ms"),
    }
