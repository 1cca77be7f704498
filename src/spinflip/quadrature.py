"""Adaptive quadrature for semi-infinite integrals of exponentially decaying
integrands.

The rate integrals all have the shape  integral_0^inf f(eta) d eta  where
f(eta) decays like a low-order polynomial times exp(-2 eta z).  The engine
substitutes u = 2 eta z, truncates at the fixed U = 60, and refines panels
adaptively until the summed panel error is below the requested relative
tolerance.

Each panel uses the embedded Gauss-Kronrod 10/21 rule (QUADPACK qk21;
Piessens et al., QUADPACK, Springer 1983): one integrand call on the 21
Kronrod nodes gives the Kronrod value K21, which is the panel value.  The
same 21 values give two lower-order rules on disjoint node sets: G10 on the
10 Gauss nodes and R11, the interpolatory rule on the other 11.  The panel's
error estimate is max(|K21 - G10|, |K21 - R11|).  |K21 - G10| alone misses
features that fall between the Gauss nodes, because K21 and G10 then share
the same blind spot: near metals the integrand peaks at small u, and on
51,200 seeded near-metal rates that estimate let 3 rates miss 1e-8 (by up
to 9.5e-8), against none with the R11 term, for 6% more refinements there.

The initial panels are fixed: [2e-9, 0.25] and then octaves up to U.  Near
metals the integrand's structure sits at small u (the atom is well inside
the skin depth delta, so the reflection coefficients change over
eta ~ 1/delta while the kernel decays over eta ~ 1/z), and [2e-9, 0.25]
spans eight decades of u.  That panel is therefore graded toward u = 0 at
the fixed edges 0.25 * 4^-k, k = 3, 2, 1.  Without the grading every
refinement of a near-metal rate was a bisection of that one panel (2.9 per
rate on the benchmark's near-metal stream, 0 with it), and on some random
passive stacks its estimate stayed below the tolerance while the value was
off by up to 1.7e-6.

Integrands must accept an ndarray of eta values and return an ndarray of the
same shape.  The four graded panels are one 84-point call, each other
initial panel one 21-point call, and a split evaluates both halves in one
42-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import real_in_range
from .errors import DomainError, QuadratureError

__all__ = ["QuadratureSettings", "QuadratureDiagnostics", "integrate_semi_infinite"]

# Gauss-Kronrod 10/21 rule on [-1, 1] (QUADPACK qk21), listed for x >= 0 from
# x = 1 inward; every second node, starting with the second, is a 10-point
# Gauss node.  Mirrored below into ascending order, which puts the Gauss
# nodes at the odd indices and the other 11 at the even ones.
_KRONROD_HALF_NODES = (
    0.99565716302580808074, 0.97390652851717172008, 0.93015749135570822600,
    0.86506336668898451073, 0.78081772658641689706, 0.67940956829902440623,
    0.56275713466860468334, 0.43339539412924719080, 0.29439286270146019813,
    0.14887433898163121088, 0.0)
_KRONROD_HALF_WEIGHTS = (
    0.011694638867371874278, 0.032558162307964727479, 0.054755896574351996031,
    0.075039674810919952767, 0.093125454583697605535, 0.10938715880229764190,
    0.12349197626206585108, 0.13470921731147332593, 0.14277593857706008080,
    0.14773910490133849137, 0.14944555400291690566)
_GAUSS_HALF_WEIGHTS = (
    0.066671344308688137594, 0.14945134915058059315, 0.21908636251598204400,
    0.26926671930999635509, 0.29552422471475287017)
# Interpolatory rule R11 on the 11 non-Gauss Kronrod nodes (exact to degree 11).
_REST_HALF_WEIGHTS = (
    0.022516403409274716939, 0.10897571241180882979, 0.18677625941453204631,
    0.24650565268786806814, 0.28599922235261054602, 0.29845349944781158561)

_KRONROD_NODES = np.array([-x for x in _KRONROD_HALF_NODES[:-1]]
                          + list(_KRONROD_HALF_NODES[::-1]))
_KRONROD_WEIGHTS = np.array(_KRONROD_HALF_WEIGHTS[:-1] + _KRONROD_HALF_WEIGHTS[::-1])
_NODES = _KRONROD_NODES.size
_GAUSS_WEIGHTS = np.array(_GAUSS_HALF_WEIGHTS + _GAUSS_HALF_WEIGHTS[::-1])
_REST_WEIGHTS = np.array(_REST_HALF_WEIGHTS[:-1] + _REST_HALF_WEIGHTS[::-1])
# The three rules as the columns K21, G10, R11 of one matrix on all 21 nodes.
_RULES = np.zeros((_NODES, 3))
_RULES[:, 0] = _KRONROD_WEIGHTS
_RULES[1::2, 1] = _GAUSS_WEIGHTS
_RULES[0::2, 2] = _REST_WEIGHTS

# Integration starts at eta = _ETA_EPS / z rather than 0 to keep branch code
# away from the removable eta = 0 point; the excluded mass is bounded by
# max|f| * _ETA_EPS / z and is far below any useful tolerance.
_ETA_EPS = 1e-9

# Truncation point in u.  The envelope u^4 e^{-u} covers integrands growing
# up to ~u^3 under the exponential; its tail beyond U = 60, relative to its
# full integral Gamma(5) = 24, is 5.06e-21, far below any useful rel_tol.
_U = 60.0


def _panel_set(a, b):
    """Panels [a[i], b[i]] as (a, b, flat Kronrod nodes, half-width column)."""
    lo = np.asarray(a, dtype=float)
    half = 0.5 * (np.asarray(b, dtype=float) - lo)[:, None]
    return a, b, ((lo[:, None] + half) + half * _KRONROD_NODES).ravel(), half


# Initial panels in u, one integrand call per panel set, built once:
# [2e-9, 0.25] graded toward u = 0 at 0.25 * 4^-k (k = 3, 2, 1), then the
# octaves from 0.25 up to _U.
_GRADED_EDGES = (2.0 * _ETA_EPS, 0.25 / 64, 0.25 / 16, 0.25 / 4, 0.25)
_OCTAVE_EDGES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, _U)
_INITIAL_CALLS = (_panel_set(_GRADED_EDGES[:-1], _GRADED_EDGES[1:]),) + tuple(
    _panel_set((a,), (b,)) for a, b in zip(_OCTAVE_EDGES[:-1], _OCTAVE_EDGES[1:]))


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-8          # target relative error
    max_refinements: int = 60      # panel-split budget

    def __post_init__(self):
        if not real_in_range(self.rel_tol):
            raise DomainError("rel_tol must be positive and finite")
        m = self.max_refinements
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
            raise DomainError("max_refinements must be a whole number")
        if m < 1:
            raise DomainError("max_refinements must be at least 1")


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class QuadratureDiagnostics:
    evaluations: int        # integrand evaluations performed
    truncation_eta: float   # upper integration limit in eta (1/m)
    est_error: float        # estimated relative error of the returned value
    refinements: int        # panel splits performed
    panels: int             # final panel count


def _panels(g, a, b, u, half):
    """Evaluate a _panel_set in one integrand call.  Returns one
    (error estimate, a, b, Kronrod value) record per panel."""
    rules = half * (g(u).reshape(-1, _NODES) @ _RULES)
    panels = []
    for a_i, b_i, (kronrod, gauss, rest) in zip(a, b, rules.tolist()):
        # Every K21 weight is positive: K21 is finite only if f is on all 21 nodes.
        if not math.isfinite(kronrod):
            raise QuadratureError(f"integrand not finite on panel [{a_i}, {b_i}]")
        panels.append((max(abs(kronrod - gauss), abs(kronrod - rest)), a_i, b_i, kronrod))
    return panels


def integrate_semi_infinite(integrand, z: float,
                            settings: QuadratureSettings = DEFAULT_SETTINGS):
    """Integrate `integrand(eta)` over (0, inf) for an integrand decaying at
    least as fast as a cubic times exp(-2 eta z).

    Returns (value, QuadratureDiagnostics); raises QuadratureError (carrying
    the partial value) if the refinement budget is exhausted first.
    """
    if not real_in_range(z):
        raise DomainError("z must be positive and finite")

    scale = 1.0 / (2.0 * z)

    def g(u):
        return np.asarray(integrand(u * scale), dtype=float) * scale

    evaluations = 0
    panels = []  # (error, a, b, value)
    for a, b, u, half in _INITIAL_CALLS:
        panels += _panels(g, a, b, u, half)
        evaluations += u.size

    refinements = 0
    while True:
        total = math.fsum(p[3] for p in panels)
        err_total = math.fsum(p[0] for p in panels)
        if err_total <= settings.rel_tol * abs(total):
            break
        if refinements >= settings.max_refinements:
            diag = QuadratureDiagnostics(
                evaluations=evaluations, truncation_eta=_U * scale,
                est_error=err_total / abs(total) if total else math.inf,
                refinements=refinements, panels=len(panels))
            raise QuadratureError(
                f"no convergence after {refinements} refinements "
                f"(estimated relative error {diag.est_error:.3e})",
                partial_value=total, diagnostics=diag)
        panels.sort(key=lambda p: p[0])
        _, a, b, _ = panels.pop()
        mid = 0.5 * (a + b)
        panels += _panels(g, *_panel_set((a, mid), (mid, b)))
        evaluations += 2 * _NODES
        refinements += 1

    diag = QuadratureDiagnostics(
        evaluations=evaluations, truncation_eta=_U * scale,
        est_error=err_total / abs(total) if total else 0.0,
        refinements=refinements, panels=len(panels))
    return total, diag
