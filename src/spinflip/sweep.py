"""Sweep engine, screening factor, JSON configuration and CSV output.

Configuration file schema (all quantities SI; see README for a worked
example):

    {
      "materials": [                       # optional extra/override models
        {"label": "...", "variant": "vacuum" | "drude_metal" |
                         "isotropic_sc" | "uniaxial_sc",
         "parameters": {...}}
      ],
      "stack": {
        "layers": [{"material": "vacuum"},
                   {"material": "niobium", "thickness": 1e-6},
                   {"material": "copper"}],
        "temperature": 4.2
      },
      "z": 10e-6,
      "transition": {"frequency": 560e3, "label": "...",      # optional
                     "matrix_elements": [mx, my, mz]},        # optional;
                                  # each a number or a [re, im] pair
      "quadrature": {"rel_tol": 1e-8, "max_refinements": 60}, # optional
      "sweep": {"axis": "distance_z" | "thickness_d" |
                        "temperature_T" | "reduced_T_over_Tc",
                "min": ..., "max": ..., "points": ...,
                "spacing": "linear" | "log"}   # sweep runs only; spacing optional
    }

Every object takes exactly its keys above; an unknown key anywhere (a
misspelling) is a ConfigError naming the object and the key.  A material's
"parameters" take "sigma" (drude_metal), the two-fluid "lambda0", "Tc",
"sigma_normal" and "alpha" (isotropic_sc, and each of uniaxial_sc's
"transverse" and "longitudinal"), or nothing (vacuum); both superconductors
also take "first_critical_field" and "gap_frequency".  Only an interior
layer takes "thickness": the outer layers are semi-infinite.

CSV output: "#"-prefixed metadata lines (version, input echo), one header row
with unit-annotated column names, then one row per grid point with decimal
floats carrying 17 significant digits (value-exact round trip).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import __version__
from .constants import RB87_CLOCK_TRANSITION, TransitionSpec, finite_real, real_in_range
from .errors import ConfigError, DomainError, QuasiStaticWarning, SpinflipError
from .materials import (DrudeMetal, IsotropicSuperconductor, MaterialModel,
                        TwoFluidParams, UniaxialSuperconductor, Vacuum,
                        material_presets)
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .rates import _check_quasi_static, spin_flip_rate
from .stratified import Layer, LayerStack

__all__ = [
    "SweepSpec",
    "SweepTable",
    "RunConfig",
    "screening_factor",
    "override_tolerance",
    "run_sweep",
    "emit_csv",
    "load_config",
    "parse_config",
]

_AXIS_COLUMN = {
    "distance_z": "z_m",
    "thickness_d": "d_m",
    "temperature_T": "T_K",
    "reduced_T_over_Tc": "T_over_Tc",
}
AXES = tuple(_AXIS_COLUMN)
# Largest sweep.points: a bigger grid is a mistake, not a run to queue.
MAX_POINTS = 10**6


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    minimum: float
    maximum: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; choose from {AXES}")
        if not (finite_real(self.minimum) and finite_real(self.maximum)
                and self.minimum < self.maximum):
            raise ConfigError("sweep requires finite min < max")
        if not (isinstance(self.points, numbers.Integral) and 2 <= self.points <= MAX_POINTS):
            raise ConfigError(f"sweep requires a whole number of 2 to {MAX_POINTS} points")
        if self.spacing not in ("linear", "log"):
            raise ConfigError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.minimum <= 0:
            raise ConfigError("log spacing requires min > 0")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.minimum, self.maximum, self.points)
        return np.linspace(self.minimum, self.maximum, self.points)


@dataclass(frozen=True)
class RunConfig:
    stack: LayerStack
    z: float
    transition: TransitionSpec = RB87_CLOCK_TRANSITION
    settings: QuadratureSettings = DEFAULT_SETTINGS
    echo: dict = field(default_factory=dict)   # raw input for CSV metadata

    def __post_init__(self):
        for name, kind in (("stack", LayerStack), ("transition", TransitionSpec),
                           ("settings", QuadratureSettings)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")
        if not real_in_range(self.z):
            raise ConfigError("z must be positive and finite")


@dataclass
class SweepTable:
    columns: dict[str, list]      # column name (unit-annotated) -> values
    metadata: dict[str, Any]

    @property
    def rows(self) -> int:
        return len(next(iter(self.columns.values())))


def _critical_temperatures(stack: LayerStack) -> list[float]:
    """Tc of each superconducting layer below the vacuum, top to bottom."""
    materials = [layer.material for layer in stack.layers[1:]]
    return [m.params.Tc if isinstance(m, IsotropicSuperconductor) else m.transverse.Tc
            for m in materials
            if isinstance(m, (IsotropicSuperconductor, UniaxialSuperconductor))]


def _screening(tau: float, tau0: float) -> float:
    """S(d) = (tau - tau0) / tau0, tau0 the bare-substrate lifetime."""
    return (tau - tau0) / tau0


def screening_factor(stack: LayerStack, z: float,
                     transition: TransitionSpec = RB87_CLOCK_TRANSITION,
                     T: float | None = None,
                     settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """Relative lifetime gain of the film over the bare substrate,
    (tau(d) - tau(0)) / tau(0), with both lifetimes computed on the same
    rate route so the ratio is route-normalization free."""
    tau_d = spin_flip_rate(stack, z, transition, T, settings).tau
    tau_0 = spin_flip_rate(stack.with_film_thickness(0.0), z, transition, T, settings).tau
    return _screening(tau_d, tau_0)


def override_tolerance(config: RunConfig, rel_tol: float | None) -> RunConfig:
    """`config` with quadrature rel_tol `rel_tol`; unchanged when it is None."""
    if rel_tol is None:
        return config
    return replace(config, settings=replace(config.settings, rel_tol=rel_tol))


def run_sweep(spec: SweepSpec, config: RunConfig) -> SweepTable:
    """Evaluate the rate over the sweep grid.

    Rows are independent and deterministic; per-row failures are recorded in
    the status column and only an all-row failure aborts the run.  Thickness
    sweeps carry the screening factor against the zero-thickness stack.  The
    quasi-static warning is issued once, for the largest z of the sweep.
    """
    if not (isinstance(spec, SweepSpec) and isinstance(config, RunConfig)):
        raise ConfigError(f"run_sweep needs a SweepSpec and a RunConfig, not "
                          f"{type(spec).__name__} and {type(config).__name__}")
    tcs = _critical_temperatures(config.stack)
    if spec.axis == "reduced_T_over_Tc" and not tcs:
        raise ConfigError("reduced-temperature sweep requires a superconducting layer")
    thickness = spec.axis == "thickness_d"
    grid = [float(value) for value in spec.grid()]
    _check_quasi_static(max(grid) if spec.axis == "distance_z" else config.z,
                        config.transition)
    names = ["gamma_total_per_s", "tau_s", "n_th"]
    if thickness:
        names.append("screening_factor")
    columns = {_AXIS_COLUMN[spec.axis]: grid, **{name: [] for name in names}, "status": []}
    stack, z, T = config.stack, config.z, config.stack.temperature
    causes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuasiStaticWarning)
        if thickness:
            tau0 = spin_flip_rate(stack.with_film_thickness(0.0), z, config.transition,
                                  None, config.settings).tau
        for value in grid:
            try:
                if spec.axis == "distance_z":
                    z = value
                elif thickness:
                    stack = config.stack.with_film_thickness(value)
                elif spec.axis == "temperature_T":
                    T = value
                else:  # reduced_T_over_Tc
                    T = value * tcs[0]
                result = spin_flip_rate(stack, z, config.transition, T, config.settings)
            except SpinflipError as exc:
                causes.append(exc)
                row = [math.nan] * len(names)
                status = f"error: {exc}"
            else:
                row = [result.gamma_total, result.tau, result.n_th]
                if thickness:
                    row.append(_screening(result.tau, tau0))
                # Flags superconducting layers driven normal.
                status = "normal-state film" if any(T >= tc for tc in tcs) else "ok"
            for name, v in zip(names, row):
                columns[name].append(v)
            columns["status"].append(status)
    if len(causes) == len(grid):
        raise SpinflipError(f"every sweep row failed (first row: {causes[0]})")

    metadata = dict(config.echo)
    metadata["sweep"] = {"axis": spec.axis, "min": spec.minimum,
                         "max": spec.maximum, "points": spec.points,
                         "spacing": spec.spacing}
    return SweepTable(columns=columns, metadata=metadata)


def emit_csv(table: SweepTable, path) -> None:
    """Write the table as UTF-8 CSV with LF endings, '#' metadata comments and
    17-significant-digit floats."""
    names = list(table.columns)
    cells = [[format(v, ".17g") if isinstance(v, float) else v for v in table.columns[n]]
             for n in names]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# spinflip {__version__}\n# input: "
                     + json.dumps(table.metadata, sort_keys=True, separators=(",", ":")) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(zip(*cells))
    except OSError as exc:
        raise SpinflipError(f"cannot write CSV to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _fields(value, context: str, required=(), optional=()) -> dict:
    """`value` as a JSON object with every `required` key not null and no key outside
    `required` and `optional`, less its null (absent) keys; each error names the object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object")
    for key in required:
        if value.get(key) is None:
            raise ConfigError(f"{'null' if key in value else 'missing'} {key!r} in {context}")
    unknown = value.keys() - {*required, *optional}
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(sorted(map(repr, unknown)))} in {context}; "
                          f"expected {', '.join((*required, *optional)) or 'none'}")
    return {key: v for key, v in value.items() if v is not None}


def _real(value, context: str) -> float:
    """A finite JSON number (int or float; bool is not a number) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number")
    if not finite_real(value):  # NaN, inf, or an int beyond floats
        raise ConfigError(f"{context} must be finite")
    return float(value)


def _finite(mapping: dict, key: str, context: str) -> float:
    return _real(mapping[key], f"{context}.{key}")


def _text(mapping: dict, key: str, context: str, default: str | None = None) -> str:
    if not isinstance(value := mapping.get(key, default), str):
        raise ConfigError(f"{context}.{key} must be a string")
    return value


def _whole(mapping: dict, key: str, context: str) -> int:
    value = _finite(mapping, key, context)
    if not value.is_integer():
        raise ConfigError(f"{context}.{key} must be a whole number")
    return int(value)


def _complex(value, context: str) -> complex:
    """A finite complex number given as a number or a [re, im] pair."""
    parts = value if isinstance(value, list) else [value]
    if not 1 <= len(parts) <= 2:
        raise ConfigError(f"{context} must be a finite number or a [re, im] pair")
    return complex(*(_real(x, context) for x in parts))


def _built(place: str, make, *args, **kwargs):
    """make(*args, **kwargs); a range error becomes a ConfigError naming its place."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{place}: {exc}") from exc


_TWO_FLUID = ("lambda0", "Tc", "sigma_normal", "alpha")
_VALIDITY = ("first_critical_field", "gap_frequency")   # a superconductor's, optional
_PARAMETERS = {   # variant -> its required and optional parameter keys
    "vacuum": ((), ()),
    "drude_metal": (("sigma",), ()),
    "isotropic_sc": (_TWO_FLUID, _VALIDITY),
    "uniaxial_sc": (("transverse", "longitudinal"), _VALIDITY),
}


def _two_fluid(params: dict, context: str) -> TwoFluidParams:
    fields = {key: _finite(params, key, context) for key in _TWO_FLUID}
    return _built(context, TwoFluidParams, **fields)


def _parse_material(entry, context: str) -> MaterialModel:
    entry = _fields(entry, context, ("label", "variant"), ("parameters",))
    label, variant = _text(entry, "label", context), entry["variant"]
    ctx = f"material {label!r}"
    if not (isinstance(variant, str) and variant in _PARAMETERS):
        raise ConfigError(f"unknown material variant {variant!r} for {label!r}")
    params = _fields(entry.get("parameters", {}), f"{ctx} parameters", *_PARAMETERS[variant])
    if variant == "vacuum":
        return Vacuum(label=label)
    if variant == "drude_metal":
        return _built(ctx, DrudeMetal, sigma=_finite(params, "sigma", ctx), label=label)
    validity = {key: _finite(params, key, ctx) for key in _VALIDITY if key in params}
    if variant == "isotropic_sc":
        return _built(ctx, IsotropicSuperconductor, params=_two_fluid(params, ctx),
                      label=label, **validity)
    parts = {part: _two_fluid(_fields(params[part], f"{ctx} {part}", _TWO_FLUID), f"{ctx} {part}")
             for part in ("transverse", "longitudinal")}
    return _built(ctx, UniaxialSuperconductor, label=label, **parts, **validity)


def parse_config(raw: dict) -> tuple[RunConfig, SweepSpec | None]:
    """Validate a configuration mapping; returns the run configuration and
    the sweep specification when one is present.  Raises ConfigError before
    any computation on invalid input: it checks the JSON shape of each object
    (its keys through _fields, its values here) and leaves every range check
    to the constructor it feeds (through _built)."""
    top = _fields(raw, "configuration", ("stack", "z"),
                  ("materials", "transition", "quadrature", "sweep"))
    registry = {m.label: m for m in material_presets()}
    materials_raw = top.get("materials", [])
    if not isinstance(materials_raw, list):
        raise ConfigError("materials must be a list")
    for i, entry in enumerate(materials_raw):
        m = _parse_material(entry, f"materials[{i}]")
        registry[m.label] = m

    stack_raw = _fields(top["stack"], "stack", ("layers", "temperature"))
    layers_raw = stack_raw["layers"]
    if not isinstance(layers_raw, list) or len(layers_raw) < 2:
        raise ConfigError("stack.layers must list at least 2 layers")
    layers = []
    for i, lr in enumerate(layers_raw):
        place = f"stack.layers[{i}]"
        interior = 0 < i < len(layers_raw) - 1   # outer layers are semi-infinite
        lr = _fields(lr, place, ("material", "thickness") if interior else ("material",))
        name = lr["material"]
        if not isinstance(name, str) or name not in registry:
            raise ConfigError(f"{place}: unknown material {name!r}")
        thickness = _finite(lr, "thickness", place) if interior else math.inf
        layers.append(_built(place, Layer, registry[name], thickness))
    stack = _built("stack", LayerStack, tuple(layers), _finite(stack_raw, "temperature", "stack"))
    z = _finite(top, "z", "configuration")

    transition = RB87_CLOCK_TRANSITION
    if "transition" in top:
        tr = _fields(top["transition"], "transition", ("frequency",),
                     ("label", "matrix_elements"))
        trkw = {"frequency": _finite(tr, "frequency", "transition"),
                "label": _text(tr, "label", "transition", "")}
        if "matrix_elements" in tr:
            elements = tr["matrix_elements"]
            if not isinstance(elements, list):
                raise ConfigError("transition.matrix_elements must be a list")
            trkw["matrix_elements"] = tuple(
                _complex(xy, f"transition.matrix_elements[{i}]")
                for i, xy in enumerate(elements))
        transition = _built("transition", TransitionSpec, **trkw)

    readers = {"rel_tol": _finite, "max_refinements": _whole}
    q = _fields(top.get("quadrature", {}), "quadrature", optional=tuple(readers))
    settings = _built("quadrature", replace, DEFAULT_SETTINGS,
                      **{key: readers[key](q, key, "quadrature") for key in q})

    sweep = None
    if "sweep" in top:
        s = _fields(top["sweep"], "sweep", ("axis", "min", "max", "points"), ("spacing",))
        sweep = SweepSpec(
            axis=_text(s, "axis", "sweep"),
            minimum=_finite(s, "min", "sweep"),
            maximum=_finite(s, "max", "sweep"),
            points=_whole(s, "points", "sweep"),
            spacing=_text(s, "spacing", "sweep", "linear"))

    config = RunConfig(stack=stack, z=z, transition=transition,
                       settings=settings, echo=raw)
    return config, sweep


def load_config(path) -> tuple[RunConfig, SweepSpec | None]:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return parse_config(raw)
