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
                "spacing": "linear" | "log"}                  # sweep runs only
    }

CSV output: "#"-prefixed metadata lines (version, input echo), one header row
with unit-annotated column names, then one row per grid point with decimal
floats carrying 17 significant digits (value-exact round trip).
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np

from . import __version__
from .constants import RB87_CLOCK_TRANSITION, TransitionSpec, finite_real, real_in_range
from .errors import ConfigError, DomainError, QuasiStaticWarning, SpinflipError
from .materials import (DrudeMetal, IsotropicSuperconductor, MaterialModel,
                        TwoFluidParams, UniaxialSuperconductor, Vacuum,
                        material_presets)
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .rates import check_quasi_static, spin_flip_rate
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
    tcs = _critical_temperatures(config.stack)
    if spec.axis == "reduced_T_over_Tc" and not tcs:
        raise ConfigError("reduced-temperature sweep requires a superconducting layer")
    thickness = spec.axis == "thickness_d"
    grid = [float(value) for value in spec.grid()]
    check_quasi_static(max(grid) if spec.axis == "distance_z" else config.z,
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


def _format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def emit_csv(table: SweepTable, path) -> None:
    """Write the table as UTF-8 CSV with LF endings, '#' metadata comments and
    17-significant-digit floats."""
    lines = [f"# spinflip {__version__}"]
    lines.append("# input: " + json.dumps(table.metadata, sort_keys=True,
                                          separators=(",", ":")))
    names = list(table.columns)
    lines.append(",".join(names))
    for i in range(table.rows):
        lines.append(",".join(_format_value(table.columns[n][i]) for n in names))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise SpinflipError(f"cannot write CSV to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object")
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {context}")
    return mapping[key]


def _real(value, context: str) -> float:
    """A finite JSON number (int or float; bool is not a number) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number")
    if not finite_real(value):  # NaN, inf, or an int beyond floats
        raise ConfigError(f"{context} must be finite")
    return float(value)


def _finite(mapping: dict, key: str, context: str) -> float:
    return _real(_require(mapping, key, context), f"{context}.{key}")


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


def _two_fluid(params: dict, context: str) -> TwoFluidParams:
    params = _object(params, context)
    return TwoFluidParams(**{key: _finite(params, key, context)
                             for key in ("lambda0", "Tc", "sigma_normal", "alpha")})


def _validity_metadata(params: dict, context: str) -> dict:
    """A superconductor's optional first_critical_field and gap_frequency."""
    return {key: None if params.get(key) is None else _finite(params, key, context)
            for key in ("first_critical_field", "gap_frequency")}


def _parse_material(entry: dict) -> MaterialModel:
    label = str(_require(entry, "label", "material"))
    variant = _require(entry, "variant", f"material {label!r}")
    ctx = f"material {label!r}"
    params = _object(entry.get("parameters", {}), f"{ctx} parameters")
    if variant == "vacuum":
        return Vacuum(label=label)
    if variant == "drude_metal":
        return DrudeMetal(sigma=_finite(params, "sigma", ctx), label=label)
    if variant == "isotropic_sc":
        return IsotropicSuperconductor(params=_two_fluid(params, ctx), label=label,
                                       **_validity_metadata(params, ctx))
    if variant == "uniaxial_sc":
        return UniaxialSuperconductor(
            transverse=_two_fluid(_require(params, "transverse", ctx), f"{ctx} transverse"),
            longitudinal=_two_fluid(_require(params, "longitudinal", ctx),
                                    f"{ctx} longitudinal"),
            label=label, **_validity_metadata(params, ctx))
    raise ConfigError(f"unknown material variant {variant!r} for {label!r}")


def parse_config(raw: dict) -> tuple[RunConfig, SweepSpec | None]:
    """Validate a configuration mapping; returns the run configuration and
    the sweep specification when one is present.  Raises ConfigError before
    any computation on invalid input."""
    try:
        return _parse(raw)
    except DomainError as exc:  # a value out of its constructor's range
        raise ConfigError(str(exc)) from exc


def _parse(raw) -> tuple[RunConfig, SweepSpec | None]:
    """parse_config without the DomainError rewrap: it checks the JSON shape
    of each field and leaves every range check to the constructor it feeds."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")

    registry = {m.label: m for m in material_presets()}
    materials_raw = raw.get("materials", [])
    if not isinstance(materials_raw, list):
        raise ConfigError("materials must be a list")
    for i, entry in enumerate(materials_raw):
        m = _parse_material(_object(entry, f"materials[{i}]"))
        registry[m.label] = m

    stack_raw = _object(_require(raw, "stack", "configuration"), "stack")
    layers_raw = _require(stack_raw, "layers", "stack")
    if not isinstance(layers_raw, list) or len(layers_raw) < 2:
        raise ConfigError("stack.layers must list at least 2 layers")
    layers = []
    for i, lr in enumerate(layers_raw):
        lr = _object(lr, f"stack.layers[{i}]")
        name = _require(lr, "material", f"stack.layers[{i}]")
        if not isinstance(name, str) or name not in registry:
            raise ConfigError(f"stack references unknown material {name!r}")
        interior = 0 < i < len(layers_raw) - 1
        thickness = _finite(lr, "thickness", f"stack.layers[{i}]") if interior else math.inf
        layers.append(Layer(registry[name], thickness))
    stack = LayerStack(tuple(layers), _finite(stack_raw, "temperature", "stack"))
    z = _finite(raw, "z", "configuration")

    transition = RB87_CLOCK_TRANSITION
    if "transition" in raw:
        tr = _object(raw["transition"], "transition")
        trkw = {"frequency": _finite(tr, "frequency", "transition"),
                "label": str(tr.get("label", ""))}
        if "matrix_elements" in tr:
            elements = tr["matrix_elements"]
            if not isinstance(elements, list):
                raise ConfigError("transition.matrix_elements must be a list")
            trkw["matrix_elements"] = tuple(
                _complex(xy, f"transition.matrix_elements[{i}]")
                for i, xy in enumerate(elements))
        transition = TransitionSpec(**trkw)

    settings = DEFAULT_SETTINGS
    if "quadrature" in raw:
        q = _object(raw["quadrature"], "quadrature")
        defaults = asdict(DEFAULT_SETTINGS)
        unknown = q.keys() - defaults.keys()
        if unknown:
            raise ConfigError(f"unknown quadrature key(s) {', '.join(map(repr, unknown))}; "
                              f"expected {' or '.join(defaults)}")
        q = {**defaults, **q}
        settings = QuadratureSettings(
            rel_tol=_finite(q, "rel_tol", "quadrature"),
            max_refinements=_whole(q, "max_refinements", "quadrature"))

    sweep = None
    if "sweep" in raw:
        s = _object(raw["sweep"], "sweep")
        sweep = SweepSpec(
            axis=str(_require(s, "axis", "sweep")),
            minimum=_finite(s, "min", "sweep"),
            maximum=_finite(s, "max", "sweep"),
            points=_whole(s, "points", "sweep"),
            spacing=str(s.get("spacing", "linear")))

    config = RunConfig(stack=stack, z=z, transition=transition,
                       settings=settings, echo=raw)
    return config, sweep


def load_config(path) -> tuple[RunConfig, SweepSpec | None]:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return parse_config(raw)
