"""Seeded inputs of the spinflip benchmark.

Each workload is a closed loop with one caller: the next request is sent only
after the previous one has returned.  The program receives only the generated
inputs; the seed stays in the benchmark.

* ``figures``    -- the 12 curves of fig2..fig5 (530 sweep rows plus the two
  bare-substrate reference rates of the thickness curves, 532 rates a pass),
  run through ``figures.reproduce``.  This is the paper's deliverable and the
  only workload that enters ``sweep.parse_config``, ``run_sweep`` and
  ``emit_csv``.  Only about 1% of its rates refine, so it exercises the
  first quadrature pass and the per-row path.  Its inputs are the committed
  figure configs and do not depend on the seed.
* ``rates``      -- independent ``spin_flip_rate`` requests at atom-chip
  heights: Nb, BSCCO or Cu films on Cu (20% bare Cu), d log-uniform over
  1 nm..10 um, z log-uniform over 1..100 um, T uniform over 0.2..100 K.
  Requests share no work, the sweep layer is bypassed and both rate routes
  run, so per-rate overhead in quadrature/stratified/materials dominates.
* ``near_metal`` -- independent requests at z log-uniform over 0.1..5 um
  above normal-conducting stacks (bare Cu, or Nb or BSCCO films of
  10 nm..1 um on Cu, at T uniform over 100..300 K, above both Tc).  Here z is
  far below the skin depth, the integrand has structure inside the first
  panel and almost every rate refines: the only workload where the adaptive
  refinement loop does most of the work.

A request stream is a cycle of ``CYCLE`` distinct requests, sent in order
and repeated until the run's time is up.

Every rate is checked against a reference tau computed at rel_tol = 1e-12.
References of the default seeds and of every figure rate are committed under
``references/`` (regenerate them with ``refs.py``); for any other seed they
are computed in an untimed pre-pass.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

from spinflip import (BSCCO, COPPER, NIOBIUM, VACUUM, Layer, LayerStack,
                      QuadratureSettings, parse_config, run_sweep, spin_flip_rate)
from spinflip.figures import FIGURES, figure_curves

STREAMS = ("rates", "near_metal")
WORKLOADS = ("figures",) + STREAMS

# Distinct requests per cycle of a request stream.
CYCLE = 1024

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
REFERENCE_SETTINGS = QuadratureSettings(rel_tol=1e-12, max_refinements=1000)
# A rate passes if its tau is within CHECK_TOL (relative) of the reference,
# the package's default quadrature tolerance.  At the commit that defined the
# benchmark the largest deviation is about 1e-11 (see refs.py).
CHECK_TOL = 1e-8

_FILMS = {"niobium": NIOBIUM, "bscco": BSCCO, "copper": COPPER}


@dataclass(frozen=True)
class Request:
    """One rate request: a film (None for bare copper) of thickness d on
    copper, the atom height z and the temperature T, all SI."""

    film: str | None
    d: float
    z: float
    T: float

    def stack(self) -> LayerStack:
        if self.film is None:
            layers = (Layer(VACUUM), Layer(COPPER))
        else:
            layers = (Layer(VACUUM), Layer(_FILMS[self.film], self.d), Layer(COPPER))
        return LayerStack(layers, self.T)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rates_request(rng: random.Random) -> Request:
    film = None if rng.random() < 0.2 else rng.choice(("niobium", "bscco", "copper"))
    d = _log_uniform(rng, 1e-9, 1e-5) if film else 0.0
    return Request(film, d, _log_uniform(rng, 1e-6, 1e-4), rng.uniform(0.2, 100.0))


def _near_metal_request(rng: random.Random) -> Request:
    film = rng.choice((None, "niobium", "bscco"))
    d = _log_uniform(rng, 1e-8, 1e-6) if film else 0.0
    return Request(film, d, _log_uniform(rng, 1e-7, 5e-6), rng.uniform(100.0, 300.0))


_GENERATORS = {"rates": _rates_request, "near_metal": _near_metal_request}


def requests(workload: str, seed: int) -> list[Request]:
    """The request cycle of a stream workload; the same seed gives the same
    requests."""
    rng = random.Random(f"{workload}:{seed}")
    return [_GENERATORS[workload](rng) for _ in range(CYCLE)]


def stream_references(workload: str, seed: int, reqs: list[Request],
                      committed: bool = True) -> list[float]:
    """Reference taus of a request cycle: the committed ones if this seed
    has them (and `committed`), else computed now."""
    path = REFERENCE_DIR / f"{workload}.json"
    if committed and path.exists():
        taus = json.loads(path.read_text("utf-8"))["seeds"].get(str(seed))
        if taus is not None and len(taus) == len(reqs):
            return taus
    return [spin_flip_rate(r.stack(), r.z, T=r.T, settings=REFERENCE_SETTINGS).tau
            for r in reqs]


def tau_ok(tau, ref: float) -> bool:
    return (tau is not None and math.isfinite(tau) and tau > 0
            and abs(tau - ref) <= CHECK_TOL * ref)


def screening_ok(s: float, ref: float) -> bool:
    # s = tau/tau0 - 1, so CHECK_TOL on each tau allows 2 CHECK_TOL (1 + s).
    return math.isfinite(s) and abs(s - ref) <= 2 * CHECK_TOL * abs(1.0 + ref)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def figure_configs():
    """(figure, curve name, RunConfig, SweepSpec) of every canonical curve,
    in the order ``figures.reproduce`` runs them."""
    out = []
    for fig in FIGURES:
        for curve in figure_curves(fig):
            config, spec = parse_config({k: v for k, v in curve.items() if k != "name"})
            out.append((fig, curve["name"], config, spec))
    return out


def compute_figure_references() -> list[dict]:
    """Per curve, in run order: the CSV file name, the bare-substrate tau0
    of thickness sweeps (else None), and tau and screening factor per row."""
    curves = []
    for fig, name, config, spec in figure_configs():
        config = replace(config, settings=REFERENCE_SETTINGS)
        table = run_sweep(spec, config)
        tau0 = None
        if spec.axis == "thickness_d":
            tau0 = spin_flip_rate(config.stack.with_film_thickness(0.0), config.z,
                                  config.transition, None, REFERENCE_SETTINGS).tau
        curves.append({"file": f"{fig}_{name}.csv", "tau0": tau0,
                       "tau": table.columns["tau_s"],
                       "screening": table.columns.get("screening_factor")})
    return curves


def figure_references() -> list[dict]:
    path = REFERENCE_DIR / "figures.json"
    if path.exists():
        return json.loads(path.read_text("utf-8"))["curves"]
    return compute_figure_references()


def figure_rate_taus(curves: list[dict]) -> list[float]:
    """Reference taus in the order the sweep calls spin_flip_rate."""
    taus = []
    for c in curves:
        if c["tau0"] is not None:
            taus.append(c["tau0"])
        taus.extend(c["tau"])
    return taus


def check_figure_csvs(out_dir: Path, curves: list[dict]) -> set[int]:
    """Indices (in figure_rate_taus order) of the rates that failed: a row
    that is missing, carries an ``error:`` status or misses its tau; and the
    bare-substrate rate of a thickness curve whose screening factor misses
    its reference on a row with the right tau."""
    bad = set()
    base = 0
    for c in curves:
        first_row = base + (c["tau0"] is not None)
        n = len(c["tau"])
        try:
            with open(out_dir / c["file"], encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        except OSError:
            rows = []
        if len(rows) != n:
            bad.update(range(base, first_row + n))
        for i, row in enumerate(rows[:n]):
            if (row["status"].startswith("error:")
                    or not tau_ok(float(row["tau_s"]), c["tau"][i])):
                bad.add(first_row + i)
            elif c["screening"] is not None and not screening_ok(
                    float(row["screening_factor"]), c["screening"][i]):
                bad.add(base)
        base = first_row + n
    return bad
