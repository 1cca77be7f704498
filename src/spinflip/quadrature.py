"""Adaptive quadrature for semi-infinite integrals of exponentially decaying
integrands.

The rate integrals all have the shape  integral_0^inf f(eta) d eta  where
f(eta) decays like a low-order polynomial times exp(-2 eta z).  The engine
substitutes u = 2 eta z, truncates at a finite U chosen from an analytic
envelope bound, and refines Gauss-Legendre panels adaptively (low/high order
pair per panel for the error estimate) until the summed panel error is below
the requested relative tolerance.

Integrands must accept an ndarray of eta values and return an ndarray; panel
evaluations are vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["QuadratureSettings", "QuadratureDiagnostics", "integrate_semi_infinite"]

# Low/high Gauss-Legendre rule pair used on every panel.
_LOW_NODES, _LOW_WEIGHTS = np.polynomial.legendre.leggauss(10)
_HIGH_NODES, _HIGH_WEIGHTS = np.polynomial.legendre.leggauss(21)

# Integration starts at eta = _ETA_EPS / z rather than 0 to keep branch code
# away from the removable eta = 0 point; the excluded mass is bounded by
# max|f| * _ETA_EPS / z and is far below any useful tolerance.
_ETA_EPS = 1e-9

_INITIAL_EDGES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_U_START = 60.0
_U_STEP = 30.0
_U_MAX = 600.0


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-8          # target relative error
    abs_floor: float = 0.0         # absolute error below which to stop regardless
    max_refinements: int = 60      # panel-split budget
    tail_threshold: float = 1e-12  # truncation tail-to-total bound

    def __post_init__(self):
        # Written as "not (valid)" so that NaN fails every check.
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if not self.max_refinements >= 1:
            raise DomainError("max_refinements must be at least 1")
        if not (self.abs_floor >= 0 and self.tail_threshold > 0):
            raise DomainError("abs_floor must be >= 0 and tail_threshold > 0")


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class QuadratureDiagnostics:
    evaluations: int        # integrand evaluations performed
    truncation_eta: float   # upper integration limit in eta (1/m)
    est_error: float        # estimated relative error of the returned value
    refinements: int        # panel splits performed
    panels: int             # final panel count


def _tail_bound(U: float) -> float:
    # Envelope u^4 e^{-u} covers integrands growing up to ~u^3 under the
    # exponential; tail integral relative to Gamma(5) = 24.
    return (U**4 + 4 * U**3 + 12 * U**2 + 24 * U + 24) * math.exp(-U) / 24.0


def _panel(g, a: float, b: float):
    """Evaluate one panel: returns (value_high, error_estimate, evaluations)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    u_low = mid + half * _LOW_NODES
    u_high = mid + half * _HIGH_NODES
    f_low = np.asarray(g(u_low), dtype=float)
    f_high = np.asarray(g(u_high), dtype=float)
    if not (np.all(np.isfinite(f_low)) and np.all(np.isfinite(f_high))):
        raise QuadratureError(f"integrand not finite on panel [{a}, {b}]")
    i_low = half * float(_LOW_WEIGHTS @ f_low)
    i_high = half * float(_HIGH_WEIGHTS @ f_high)
    return i_high, abs(i_high - i_low), u_low.size + u_high.size


def integrate_semi_infinite(integrand, z: float,
                            settings: QuadratureSettings = DEFAULT_SETTINGS):
    """Integrate `integrand(eta)` over (0, inf) for an integrand decaying at
    least as fast as a cubic times exp(-2 eta z).

    Returns (value, QuadratureDiagnostics); raises QuadratureError (carrying
    the partial value) if the refinement budget is exhausted first.
    """
    if z <= 0:
        raise DomainError("z must be positive")

    scale = 1.0 / (2.0 * z)

    def g(u):
        return np.asarray(integrand(u * scale), dtype=float) * scale

    # Truncation point from the analytic envelope.
    U = _U_START
    while _tail_bound(U) > settings.tail_threshold and U < _U_MAX:
        U += _U_STEP

    u_min = 2.0 * _ETA_EPS
    edges = [u_min] + [e for e in _INITIAL_EDGES if u_min < e < U] + [U]

    evaluations = 0
    panels = []  # (error, a, b, value)
    for a, b in zip(edges[:-1], edges[1:]):
        value, err, n = _panel(g, a, b)
        evaluations += n
        panels.append((err, a, b, value))

    refinements = 0
    while True:
        total = math.fsum(p[3] for p in panels)
        err_total = math.fsum(p[0] for p in panels)
        tol = max(settings.rel_tol * abs(total), settings.abs_floor)
        if err_total <= tol:
            break
        if refinements >= settings.max_refinements:
            diag = QuadratureDiagnostics(
                evaluations=evaluations, truncation_eta=U * scale,
                est_error=err_total / abs(total) if total else math.inf,
                refinements=refinements, panels=len(panels))
            raise QuadratureError(
                f"no convergence after {refinements} refinements "
                f"(estimated relative error {diag.est_error:.3e})",
                partial_value=total, diagnostics=diag)
        panels.sort(key=lambda p: p[0])
        _, a, b, _ = panels.pop()
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            value, err, n = _panel(g, lo, hi)
            evaluations += n
            panels.append((err, lo, hi, value))
        refinements += 1

    total = math.fsum(p[3] for p in panels)
    err_total = math.fsum(p[0] for p in panels)
    diag = QuadratureDiagnostics(
        evaluations=evaluations, truncation_eta=U * scale,
        est_error=err_total / abs(total) if total else 0.0,
        refinements=refinements, panels=len(panels))
    return total, diag
