"""Adaptive quadrature for semi-infinite integrals of exponentially decaying
integrands.

The rate integrals all have the shape  integral_0^inf f(eta) d eta  where
f(eta) decays like a low-order polynomial times exp(-2 eta z).  The engine
substitutes u = 2 eta z, truncates at the fixed U = 60, and refines panels
adaptively until the summed panel error is below the requested relative
tolerance.

Each panel uses the 21-point Gauss-Kronrod rule K21 (QUADPACK qk21; Piessens
et al., QUADPACK, Springer 1983): one integrand call on its 21 nodes gives
the panel value.  K21 is exact to degree 31, so its error comes from the
integrand's Legendre coefficients beyond degree 31.  The estimate reads the
coefficients c_k of the degree-20 interpolant in the orthonormal Legendre
basis (fixed linear functionals of the 21 values, columns of _RULES) and
extrapolates their decay, as Gonnet does (ACM TOMS 37, 26 (2010)) and as
the null rules of Berntsen and Espelid do (ACM TOMS 17, 233 (1991)).  With
top = max |c_k| over k >= 19 and low = max |c_k| over k >= 7, a panel's
error is 10 top (top/low): the decay seen from degree 7 to 19, applied once
more from 19 to 31.  That is trusted only where g = f e^u, the integrand with
its exponential taken out, is resolved: g's top is at most 1e-6 of |K21(g)|.
A panel whose samples alias an oscillation can show f's coefficients
decaying, because its weight sits on the few nodes where e^-u is largest,
but not g's.  Elsewhere the estimate is 4 low, about the K21 error of
samples that are noise of the size of the coefficients.  It bounds the
difference of K21 and a lower-degree rule on the same nodes, QUADPACK's
estimate: the 21 values are those of the degree-20 interpolant, so
|K21 - G10| (G10 the 10-point Gauss rule on every second node) is
1.741 |c_20|, and |K21 - R11| (R11 the interpolatory rule on the other 11)
is at most 1.771 times the largest |c_k| over k >= 12.  No estimate is below
QUADPACK's 50 eps times the panel's integral of |f|, and, as in QUADPACK, a
rel_tol below 50 eps is refused.  A summed estimate of at most the smallest
normal double (in u) converges too: subnormal values have too few bits for any
rel_tol.  Over the benchmark's 102,400 seeded stream rates (seeds 0-49 of both
streams) no rate refines and every rate is within 6.4e-14 of its rel_tol 1e-12
reference; the lower-degree differences alone refined 98% of the rates stream
and 83% of near_metal on the same panels.

The initial panels are fixed: [0, 0.25] graded toward u = 0 at the edges
0.25 * 4^-k, k = 3, 2, 1, then [0.25, 1], [1, 4], [4, 16] and [16, 60].
Near metals the integrand's structure sits at small u (the atom is well
inside the skin depth delta, so the reflection coefficients change over
eta ~ 1/delta while the kernel decays over eta ~ 1/z), which the graded
panels resolve.  The nodes are interior, so u = 0 is never evaluated.

Integrands must accept an ndarray of eta values and return a real ndarray of
the same shape; any other shape, or complex values, is a DomainError.  The
first pass is one call on the 168 nodes of the 8 initial panels, or in
integrate_rows for R rows (a sweep's call holds up to 8) on eta of shape
(R, 168), or (1, 168) when the rows share one height, for values of shape
(R, 168); the rules, tilt and half-widths broadcast over the rows.  Each row
then goes on alone, its panels float arrays of edges, K21 values and
estimates, with its own fsum and tolerance.  Worst first, as in QUADPACK's
QAG, a split evaluates both halves of the last panel of the largest
estimate in one 42-point call, deletes it and appends them.  Panels hold
integrals over u: the Jacobian 1/(2z) is applied once, to the total or to a
QuadratureError's partial value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import real_in_range
from .errors import DomainError, QuadratureError

__all__ = ["QuadratureSettings", "QuadratureDiagnostics", "integrate_semi_infinite",
           "integrate_rows"]

# The 21-point Kronrod rule on [-1, 1] (QUADPACK qk21), listed for x >= 0
# from x = 1 inward and mirrored below into ascending order.
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


def _orthonormal_legendre(x, n):
    """p_k(x) = sqrt(k + 1/2) P_k(x) for k = 0..n as the columns of a matrix
    (Bonnet's recurrence)."""
    p = [np.ones_like(x), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return np.array(p).T * np.sqrt(np.arange(n + 1) + 0.5)


_KRONROD_NODES = np.array([-x for x in _KRONROD_HALF_NODES[:-1]]
                          + list(_KRONROD_HALF_NODES[::-1]))
_KRONROD_WEIGHTS = np.array(_KRONROD_HALF_WEIGHTS[:-1] + _KRONROD_HALF_WEIGHTS[::-1])
_NODES = _KRONROD_NODES.size
# The K21 weights and the coefficients c_20, ..., c_7 as the columns of one
# matrix on the 21 nodes.  The orthonormal Legendre coefficients of the
# degree-20 interpolant are c_k = sum_j W[k, j] f(x_j), with W the inverse of
# p_k(x_j).
_RULES = np.column_stack([_KRONROD_WEIGHTS,
                          np.linalg.inv(_orthonormal_legendre(_KRONROD_NODES, 20))[20:6:-1].T])

# The estimate's constants (module docstring): g resolved to 1e-6, the floor of 50
# eps, and the smallest normal float: no 0/0 in top/low, and an absolute tolerance.
_RESOLVED = 1e-6
_FLOOR = 50 * np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Truncation point in u.  The envelope u^4 e^{-u} covers integrands growing
# up to ~u^3 under the exponential; its tail beyond U = 60, relative to its
# full integral Gamma(5) = 24, is 5.06e-21, far below any useful rel_tol.
_U = 60.0


def _panel_set(a, b):
    """Panels [a[i], b[i]] in u as (a, b, flat Kronrod nodes, half-widths, e^(u - b) on them)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)[:, None]
    return (a, b, ((a[:, None] + half) + half * _KRONROD_NODES).ravel(), half,
            np.exp(half * (_KRONROD_NODES - 1.0)))


# The 8 initial panels in u, built once: [0, 0.25] graded toward u = 0 at
# 0.25 * 4^-k (k = 3, 2, 1), then edges 0.25, 1, 4, 16 and _U.
_EDGES = (0.0, 0.25 / 64, 0.25 / 16, 0.25 / 4, 0.25, 1.0, 4.0, 16.0, _U)
_INITIAL = _panel_set(_EDGES[:-1], _EDGES[1:])

# Largest max_refinements.  Every refinement re-sums and copies all panels, so
# an unconverged rate's cost grows faster than its budget: e^(-2 eta) (1.5 +
# cos 3000 eta) |eta - 0.7|^0.3 at z = 0.5, rel_tol 1e-13 uses up 1,000 in
# 0.11-0.14 s and 4,000 (cap raised) in 0.9-1.8 s, on one core of a 2-core Xeon.
MAX_REFINEMENTS = 1_000


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
        if not 1 <= m <= MAX_REFINEMENTS:
            raise DomainError(f"max_refinements must be from 1 to {MAX_REFINEMENTS}")
        # The panel estimates' floors sum to 50 eps times the integral of |f|,
        # however fine the panels: a smaller rel_tol can never be met.
        if self.rel_tol < _FLOOR:
            raise DomainError(f"rel_tol must be at least 50 machine epsilons ({_FLOOR:.3g}), "
                              f"not {self.rel_tol:g}")


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True)
class QuadratureDiagnostics:
    evaluations: int        # integrand evaluations performed
    truncation_eta: float   # upper integration limit in eta (1/m)
    est_error: float        # estimated relative error of the returned value
    refinements: int        # panel splits performed
    panels: int             # final panel count


def _rules(values, panels, rows=()):
    """K21 values over u and error estimates, of shape rows + (panels,), from f on the nodes."""
    a, b, nodes, half, tilt = panels
    f = np.asarray(values)
    if f.shape != rows + nodes.shape or f.dtype.kind == "c":  # the contract: a real value per eta
        raise DomainError(f"integrand returned shape {f.shape} for eta of shape "
                          f"{rows + nodes.shape} (dtype {f.dtype}; one real value per eta)")
    f = np.asarray(f, dtype=float).reshape(rows + tilt.shape)
    n = len(f)
    # f's panels, then g's (f with e^-u taken out), each row's in one stacked product
    rules = np.concatenate((f, f * tilt)) @ _RULES
    kronrod = half[:, 0] * rules[:n, ..., 0]
    # Every K21 weight is positive: K21 is finite only if f is on all 21 nodes.
    if not np.isfinite(kronrod).all():
        i = int(np.argmin(np.isfinite(kronrod))) % a.size  # the first non-finite panel in u order
        raise QuadratureError(f"integrand not finite on panel [{a[i]}, {b[i]}]")
    c = np.abs(rules[..., 1:])
    top, low = np.maximum(c[..., 0], c[..., 1]), c[:n].max(axis=-1)  # max |c_k|, k >= 19, k >= 7
    errors = 10.0 * top[:n] * (top[:n] / np.maximum(low, _TINY))  # top <= low
    resolved = top[n:] <= _RESOLVED * np.abs(rules[n:, ..., 0])
    errors = np.where(resolved, errors, 4.0 * low)
    return kronrod, half[:, 0] * np.maximum(errors, _FLOOR * (np.abs(f) @ _KRONROD_WEIGHTS))


def integrate_semi_infinite(integrand, z: float,
                            settings: QuadratureSettings = DEFAULT_SETTINGS):
    """Integrate `integrand(eta)` over (0, inf) for an integrand decaying at
    least as fast as a cubic times exp(-2 eta z).

    Returns (value, QuadratureDiagnostics); raises QuadratureError (carrying
    the partial value) if the refinement budget is exhausted first.  No panel's
    estimate is below 50 eps times its integral of |f|, so an integral that
    cancels converges only while (integral of |f|) / |integral of f| stays
    below rel_tol / (50 eps): about 90 at rel_tol 1e-12, 9e5 at 1e-8.
    """
    if not real_in_range(z):
        raise DomainError("z must be positive and finite")
    if not isinstance(settings, QuadratureSettings):
        raise DomainError(f"settings must be a QuadratureSettings, not {type(settings).__name__}")
    scale = 1.0 / (2.0 * z)  # d eta / d u
    eta = _INITIAL[2] * scale
    return _refine(integrand, scale, *_rules(integrand(eta), _INITIAL), settings)


def integrate_rows(integrand, z, settings: QuadratureSettings, row) -> list:
    """integrate_semi_infinite of each row of an (R, 1) column of checked
    heights z: the first pass is one call of integrand on eta of shape (R,
    168), or (1, 168) when every row has one height, for values of shape (R,
    168); a row that misses its tolerance refines alone through row(i)."""
    scale = 1.0 / (2.0 * z)
    eta = _INITIAL[2] * (scale if (scale != scale[0]).any() else scale[:1])
    first = _rules(integrand(eta), _INITIAL, z.shape[:-1])
    return [_refine(lambda x, i=i: row(i)(x), s, k, e, settings)
            for i, (s, k, e) in enumerate(zip(scale[:, 0].tolist(), *first))]


def _refine(integrand, scale: float, kronrod, errors, settings: QuadratureSettings):
    """One row's (value, QuadratureDiagnostics) from its first pass, by worst-first splits."""
    a, b, refinements = _INITIAL[0], _INITIAL[1], 0
    while True:
        total, err_total = math.fsum(kronrod.tolist()), math.fsum(errors.tolist())
        converged = err_total <= settings.rel_tol * abs(total) or err_total <= _TINY
        if converged or refinements >= settings.max_refinements:
            break
        i = errors.size - 1 - int(np.argmax(errors[::-1]))  # the last of the worst
        mid = 0.5 * (a[i] + b[i])
        halves = _panel_set((a[i], mid), (mid, b[i]))
        new = halves[:2] + _rules(integrand(halves[2] * scale), halves)
        a, b, kronrod, errors = (np.append(np.delete(old, i), x)
                                 for old, x in zip((a, b, kronrod, errors), new))
        refinements += 1

    diag = QuadratureDiagnostics(
        evaluations=_INITIAL[2].size + 2 * _NODES * refinements, truncation_eta=_U * scale,
        est_error=err_total / abs(total) if total else (math.inf if err_total else 0.0),
        refinements=refinements, panels=errors.size)
    # A numpy product, so an overflow obeys the caller's np.errstate.
    value = float(np.float64(total) * scale)
    if not converged:
        raise QuadratureError(f"no convergence after {refinements} refinements "
                              f"(estimated relative error {diag.est_error:.3e})",
                              partial_value=value, diagnostics=diag)
    return value, diag
