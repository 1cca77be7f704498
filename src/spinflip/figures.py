"""Canonical figure reproduction.

The JSON files under spinflip/configs define one sweep per curve for the four
benchmark figures (fig2..fig5); reproduce() runs them through the ordinary
config/sweep machinery and writes one CSV per curve.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import ConfigError, SpinflipError
from .sweep import emit_csv, override_tolerance, parse_config, run_sweep

__all__ = ["FIGURES", "figure_curves", "reproduce"]

FIGURES = ("fig2", "fig3", "fig4", "fig5")


def figure_curves(name: str) -> list[dict]:
    """Curve configurations of one canonical figure."""
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; choose from {FIGURES}")
    text = resources.files("spinflip.configs").joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(text)["curves"]


def reproduce(name: str, out_dir, rel_tol: float | None = None) -> list[Path]:
    """Run every curve of figure `name` and emit <figure>_<curve>.csv files
    into `out_dir`.  Returns the written paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file, or a path under one
        raise SpinflipError(f"cannot write CSV to {out}: {exc}") from exc
    written = []
    for curve in figure_curves(name):
        curve_name = curve["name"]
        config, spec = parse_config({k: v for k, v in curve.items() if k != "name"})
        table = run_sweep(spec, override_tolerance(config, rel_tol))
        path = out / f"{name}_{curve_name}.csv"
        emit_csv(table, path)
        written.append(path)
    return written
