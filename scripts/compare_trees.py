#!/usr/bin/env python3
"""This tree's rates and figure CSVs against another source tree's, bit for bit.

    python3 scripts/compare_trees.py OTHER_TREE

OTHER_TREE is a checkout of spinflip (a directory holding ``src/spinflip``),
for example a ``git archive`` of the parent commit.  The script runs one
fixed set of rates with this tree's ``src/`` and again with OTHER_TREE's,
each in its own interpreter, and compares each rate's (value, tau,
refinements, panels, evaluations, est_error), value being the field rate
``gamma_field``.  A rate that raises a ``SpinflipError`` compares by the
error's type and message.  The set:

* every request of seeds 0 and 1 of both benchmark streams through
  ``spin_flip_rate`` at the default settings;
* seed 0 of both streams at rel_tol 1e-12 with up to 1,000 refinements,
  where most rates split;
* every seed-0 BSCCO request of both streams through ``gamma_anisotropic``
  at each ``SpinOrientation``;
* the bytes of the 12 ``spinflip reproduce`` CSVs (all four figures).

Both interpreters take the requests from this tree's
``perfbench/workloads.py``, which they import and do not change.  For each
set the script prints the count compared, the count identical and the
largest relative difference of any number, and it exits 1 on any difference.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
REFINING = {"rel_tol": 1e-12, "max_refinements": 1000}
CSVS = "reproduce CSVs (all four figures)"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def measure(tree: Path) -> dict:
    """Every set's records computed with `tree`'s spinflip: per rate a list
    of the compared fields (or the error's type and message), and per CSV
    its text."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import workloads as W
    from spinflip import (QuadratureSettings, SpinflipError, SpinOrientation,
                          gamma_anisotropic, spin_flip_rate)
    from spinflip.figures import FIGURES, reproduce

    def record(rate, request, **kwargs):
        try:
            r = rate(request.stack(), request.z, T=request.T, **kwargs)
        except SpinflipError as exc:
            return [type(exc).__name__, str(exc)]
        d = r.diagnostics
        return [r.gamma_field, r.tau, d.refinements, d.panels, d.evaluations, d.est_error]

    refining = QuadratureSettings(**REFINING)
    seed0 = [r for stream in W.STREAMS for r in W.requests(stream, 0)]
    sets = {
        f"streams at the default settings (seeds {SEEDS[0]}-{SEEDS[-1]})": [
            record(spin_flip_rate, r)
            for stream in W.STREAMS for seed in SEEDS for r in W.requests(stream, seed)],
        "streams at rel_tol 1e-12, 1,000 refinements (seed 0)": [
            record(spin_flip_rate, r, settings=refining) for r in seed0],
        "BSCCO through gamma_anisotropic, each orientation (seed 0)": [
            record(gamma_anisotropic, r, orientation=o)
            for o in SpinOrientation for r in seed0 if r.film == "bscco"],
    }
    with tempfile.TemporaryDirectory() as out:
        paths = [p for name in FIGURES for p in reproduce(name, out)]
        sets[CSVS] = {p.name: p.read_text("utf-8") for p in paths}
    return sets


def _run(tree: Path) -> dict:
    """measure(tree) in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, __file__, "--measure", str(tree)],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"measuring {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _pairs(mine, theirs) -> list[tuple]:
    """(mine, theirs) per rate, or per CSV by file name with None for a file
    that only one tree writes.  Both trees run the same requests."""
    if isinstance(mine, dict):
        return [(mine.get(k), theirs.get(k)) for k in sorted(mine.keys() | theirs.keys())]
    return list(zip(mine, theirs, strict=True))


def relative_difference(a, b) -> float:
    """Largest relative difference between the numbers of two records or
    texts; inf when they differ in anything but the digits of a number."""
    if repr(a) == repr(b):
        return 0.0
    if a is None or b is None:
        return math.inf
    if isinstance(a, str):
        x, y = ([float(n) for n in _NUMBER.findall(t)] for t in (a, b))
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b) or len(x) != len(y):
            return math.inf
    else:
        x, y = a, b
        if len(x) != len(y) or not all(isinstance(v, (int, float)) for v in x + y):
            return math.inf
    worst = 0.0
    for u, v in zip(x, y):
        if repr(u) != repr(v):
            if not (math.isfinite(u) and math.isfinite(v)):
                return math.inf
            worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    return worst


def main(other: Path) -> int:
    if not (other / "src" / "spinflip").is_dir():
        sys.exit(f"{other} holds no src/spinflip")
    mine, theirs = _run(ROOT), _run(other)
    different = 0
    for name, records in mine.items():
        pairs = _pairs(records, theirs[name])
        same = sum(repr(a) == repr(b) for a, b in pairs)
        worst = max((relative_difference(a, b) for a, b in pairs), default=0.0)
        different += len(pairs) - same
        print(f"{name}: {len(pairs)} compared, {same} identical, "
              f"largest relative difference {worst:.3g}")
    print("every rate and CSV identical" if not different else f"{different} differ")
    return 1 if different else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--measure":
        json.dump(measure(Path(sys.argv[2]).resolve()), sys.stdout)
    elif len(sys.argv) == 2:
        sys.exit(main(Path(sys.argv[1]).resolve()))
    else:
        sys.exit(__doc__)
