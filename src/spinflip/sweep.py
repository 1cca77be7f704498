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

Every object takes exactly its keys above, each declared once with the reader
of its value (_fields; a material's "parameters" take those of its variant in
VARIANTS); an unknown key anywhere (a misspelling) is a ConfigError naming the
object and the key, and a bad value one naming the same object
("material 'm' parameters.sigma must be a number").  No key repeats within
an object, and no two "materials" entries share a label (one may reuse a
preset's label, to override it).  Only an interior layer takes "thickness":
the outer layers are semi-infinite, and a "thickness_d" sweep needs such a
film layer.

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
from .rates import _check_quasi_static, _gamma, _result, spin_flip_rate
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

# Each sweep axis: its CSV column, and the (stack, z, T) of the row at grid value v, from
# the config's (stack, z, T) and its superconducting layers' critical temperatures tcs.
_AXES = {
    "distance_z": ("z_m", lambda stack, z, T, v, tcs: (stack, v, T)),
    "thickness_d": ("d_m", lambda stack, z, T, v, tcs: (stack.with_film_thickness(v), z, T)),
    "temperature_T": ("T_K", lambda stack, z, T, v, tcs: (stack, z, v)),
    "reduced_T_over_Tc": ("T_over_Tc", lambda stack, z, T, v, tcs: (stack, z, v * tcs[0])),
}
AXES = tuple(_AXES)
# Largest sweep.points: a bigger grid is a mistake, not a run to queue.
MAX_POINTS = 10**6
# Most rows in one rate call.  Above about 48 rows a call's complex arrays pass numpy's
# 256 KiB in-place temporary threshold, where products round otherwise than for one row.
CHUNK = 8


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
    the status column and only an all-row failure aborts the run.  The
    distinct (T, z, d) rows, where T counts only below a Tc, share rate calls
    of up to CHUNK rows in grid order, each call one medium with a row axis
    and one integrand call for the first passes; a call that raises runs
    again a row at a time.  Rows that share a field rate keep their own T,
    n_th and status.  Thickness sweeps carry the screening factor
    against the zero-thickness stack.  The quasi-static warning is issued
    once, for the largest z of the sweep.
    """
    if not (isinstance(spec, SweepSpec) and isinstance(config, RunConfig)):
        raise ConfigError(f"run_sweep needs a SweepSpec and a RunConfig, not "
                          f"{type(spec).__name__} and {type(config).__name__}")
    tcs = _critical_temperatures(config.stack)
    if spec.axis == "reduced_T_over_Tc" and not tcs:
        raise ConfigError("reduced-temperature sweep requires a superconducting layer")
    thickness = spec.axis == "thickness_d"
    if thickness and len(config.stack.layers) == 2:
        raise ConfigError("thickness sweep requires a film layer")
    grid = [float(value) for value in spec.grid()]
    _check_quasi_static(max(grid) if spec.axis == "distance_z" else config.z,
                        config.transition)
    names = ["gamma_total_per_s", "tau_s", "n_th"]
    if thickness:
        names.append("screening_factor")
    column, row_at = _AXES[spec.axis]
    columns = {column: grid, **{name: [] for name in names}, "status": []}
    causes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuasiStaticWarning)
        if thickness:
            tau0 = spin_flip_rate(config.stack.with_film_thickness(0.0), config.z,
                                  config.transition, None, config.settings).tau
        first, rows = {}, []   # (medium key, z, d) -> its first row's (T, z, d); grid rows
        for value in grid:
            try:
                stack, z, T = row_at(config.stack, config.z, config.stack.temperature, value, tcs)
                key = (T if any(T < tc for tc in tcs) else None, z, stack.film_thickness)
                rows.append((first.setdefault(key, (T, z, stack.film_thickness)), T))
            except SpinflipError as exc:   # a row without a stack
                rows.append((exc, None))
        distinct, outcomes = list(first.values()), {}
        for i in range(0, len(distinct), CHUNK):
            chunk = distinct[i:i + CHUNK]
            outcomes.update(zip(chunk, _rates(config.stack, chunk, config)))
        for row, T in rows:
            try:
                # a row without a stack is its own outcome, its error
                if isinstance(result := outcomes.get(row, row), SpinflipError):
                    raise result
                if T != row[0]:   # the first row's field rate at this row's T
                    result = _result(result.gamma_field, config.transition, row[1], T,
                                     result.diagnostics)
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


def _rates(stack: LayerStack, rows: list, config: RunConfig) -> list:
    """The outcome of each (T, z, d) row of `rows` over `stack`, a T or d that every row
    shares passed once: its RateResult, or if the call raises, each row's own."""
    T, z, d = map(list, zip(*rows))
    try:
        return _gamma(stack, z, config.transition, T if len(set(T)) > 1 else T[0],
                      config.settings, m_only=None, d=d if len(set(d)) > 1 else d[0])
    except SpinflipError as exc:
        if len(rows) == 1:
            return [exc]
    return [outcome for row in rows for outcome in _rates(stack, [row], config)]


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

def _fields(value, context: str, required: dict, optional: dict) -> dict:
    """`value` as a JSON object whose keys are those of the {key: reader} maps `required`
    and `optional`, each `required` key given and not null; each error names the object.
    Every non-null (given) key is read by its reader, in declaration order, into the result."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object")
    for key in required:
        if value.get(key) is None:
            raise ConfigError(f"{'null' if key in value else 'missing'} {key!r} in {context}")
    readers = {**required, **optional}
    unknown = value.keys() - readers.keys()
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(sorted(map(repr, unknown)))} in {context}; "
                          f"expected {', '.join(readers) or 'none'}")
    return {key: read(value, key, context) for key, read in readers.items()
            if value.get(key) is not None}


def _nested(mapping: dict, key: str, context: str):
    """A nested object or list as it is, for the code that reads its parts."""
    return mapping[key]


def _real(value, context: str) -> float:
    """A finite JSON number (int or float; bool is not a number) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number")
    if not finite_real(value):  # NaN, inf, or an int beyond floats
        raise ConfigError(f"{context} must be finite")
    return float(value)


def _finite(mapping: dict, key: str, context: str) -> float:
    return _real(mapping[key], f"{context}.{key}")


def _text(mapping: dict, key: str, context: str) -> str:
    if not isinstance(value := mapping[key], str):
        raise ConfigError(f"{context}.{key} must be a string")
    return value


def _whole(mapping: dict, key: str, context: str) -> int:
    value = _finite(mapping, key, context)
    if not value.is_integer():
        raise ConfigError(f"{context}.{key} must be a whole number")
    return int(value)


def _elements(mapping: dict, key: str, context: str) -> tuple[complex, ...]:
    """A list of finite complex numbers, each a number or a [re, im] pair."""
    if not isinstance(elements := mapping[key], list):
        raise ConfigError(f"{context}.{key} must be a list")
    values = []
    for i, xy in enumerate(elements):
        place = f"{context}.{key}[{i}]"
        parts = xy if isinstance(xy, list) else [xy]
        if not 1 <= len(parts) <= 2:
            raise ConfigError(f"{place} must be a finite number or a [re, im] pair")
        values.append(complex(*(_real(x, place) for x in parts)))
    return tuple(values)


def _built(place: str, make, *args, **kwargs):
    """make(*args, **kwargs); a range error becomes a ConfigError naming its place."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{place}: {exc}") from exc


_TWO_FLUID = dict.fromkeys(("lambda0", "Tc", "sigma_normal", "alpha"), _finite)
_COMPONENTS = dict.fromkeys(("transverse", "longitudinal"), _nested)   # each a _TWO_FLUID object
_VALIDITY = dict.fromkeys(("first_critical_field", "gap_frequency"), _finite)  # optional
_MEISSNER = (" [Bc1={m.first_critical_field:g} T, gap={m.gap_frequency:g} Hz;"
             " Meissner state assumed]")
VARIANTS = {   # variant -> model class, required and optional parameter readers, and the
    # `spinflip materials` line of a model m after "label: variant", a str.format template
    "vacuum": (Vacuum, {}, {}, ""),
    "drude_metal": (DrudeMetal, {"sigma": _finite}, {}, " sigma={m.sigma:g} S/m"),
    "isotropic_sc": (IsotropicSuperconductor, _TWO_FLUID, _VALIDITY, (
        " lambda0={m.params.lambda0:g} m Tc={m.params.Tc:g} K alpha={m.params.alpha:g}"
        " sigma_normal={m.params.sigma_normal:g} S/m" + _MEISSNER)),
    "uniaxial_sc": (UniaxialSuperconductor, _COMPONENTS, _VALIDITY, (
        " lambda_par0={m.transverse.lambda0:g} m lambda_perp0={m.longitudinal.lambda0:g} m"
        " Tc={m.transverse.Tc:g} K alpha={m.transverse.alpha:g}"
        " sigma_normal_par={m.transverse.sigma_normal:g} S/m"
        " sigma_normal_perp={m.longitudinal.sigma_normal:g} S/m" + _MEISSNER)),
}


def _parse_material(entry, context: str) -> MaterialModel:
    entry = _fields(entry, context, {"label": _text, "variant": _nested},
                    {"parameters": _nested})
    label, variant = entry["label"], entry["variant"]
    ctx = f"material {label!r}"
    if not (isinstance(variant, str) and variant in VARIANTS):
        raise ConfigError(f"unknown material variant {variant!r} for {label!r}")
    model, required, optional, _ = VARIANTS[variant]
    params = _fields(entry.get("parameters", {}), f"{ctx} parameters", required, optional)
    if required is _TWO_FLUID:   # the flat two-fluid keys make the model's params
        params["params"] = _built(ctx, TwoFluidParams, **{k: params.pop(k) for k in _TWO_FLUID})
    elif required is _COMPONENTS:   # each component is a nested two-fluid object
        for part in _COMPONENTS:
            fields = _fields(params[part], f"{ctx} {part}", _TWO_FLUID, {})
            params[part] = _built(f"{ctx} {part}", TwoFluidParams, **fields)
    return _built(ctx, model, label=label, **params)


def parse_config(raw: dict) -> tuple[RunConfig, SweepSpec | None]:
    """Validate a configuration mapping; returns the run configuration and
    the sweep specification when one is present.  Raises ConfigError before
    any computation on invalid input: it reads each object through _fields and
    the readers it declares, and leaves every range check to the constructor it
    feeds (through _built).  The stack's temperature and z are read after the layers."""
    top = _fields(raw, "configuration", dict.fromkeys(("stack", "z"), _nested),
                  dict.fromkeys(("materials", "transition", "quadrature", "sweep"), _nested))
    registry = {m.label: m for m in material_presets()}
    materials_raw = top.get("materials", [])
    if not isinstance(materials_raw, list):
        raise ConfigError("materials must be a list")
    first = {}   # label -> index of the entry that gives it; a preset's may be overridden
    for i, entry in enumerate(materials_raw):
        m = _parse_material(entry, f"materials[{i}]")
        if (j := first.setdefault(m.label, i)) != i:
            raise ConfigError(f"materials[{i}] repeats the label {m.label!r} of materials[{j}]")
        registry[m.label] = m

    def material(layer: dict, key: str, place: str) -> MaterialModel:   # a layer's reader
        if not isinstance(name := layer[key], str) or name not in registry:
            raise ConfigError(f"{place}: unknown material {name!r}")
        return registry[name]

    stack_raw = _fields(top["stack"], "stack", {"layers": _nested, "temperature": _nested}, {})
    layers_raw = stack_raw["layers"]
    if not isinstance(layers_raw, list) or len(layers_raw) < 2:
        raise ConfigError("stack.layers must list at least 2 layers")
    layers, outer = [], {"material": material}   # the outer layers are semi-infinite
    for i, lr in enumerate(layers_raw):
        place = f"stack.layers[{i}]"
        readers = {**outer, "thickness": _finite} if 0 < i < len(layers_raw) - 1 else outer
        layers.append(_built(place, Layer, **_fields(lr, place, readers, {})))
    stack = _built("stack", LayerStack, tuple(layers), _finite(stack_raw, "temperature", "stack"))
    z = _finite(top, "z", "configuration")

    transition = RB87_CLOCK_TRANSITION
    if "transition" in top:
        transition = _built("transition", TransitionSpec, **_fields(
            top["transition"], "transition", {"frequency": _finite},
            {"label": _text, "matrix_elements": _elements}))
    settings = _built("quadrature", replace, DEFAULT_SETTINGS, **_fields(
        top.get("quadrature", {}), "quadrature", {},
        {"rel_tol": _finite, "max_refinements": _whole}))
    sweep = None
    if "sweep" in top:   # positional: the keys are declared in SweepSpec's field order
        sweep = SweepSpec(*_fields(top["sweep"], "sweep", {
            "axis": _text, "min": _finite, "max": _finite, "points": _whole},
            {"spacing": _text}).values())

    config = RunConfig(stack=stack, z=z, transition=transition,
                       settings=settings, echo=raw)
    return config, sweep


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key, a copy-paste slip, is a ConfigError."""
    keys = sorted(key for key, _ in pairs)
    if repeated := [a for a, b in zip(keys, keys[1:]) if a == b]:
        raise ConfigError(f"repeated key {repeated[0]!r} in a JSON object")
    return dict(pairs)


def load_config(path) -> tuple[RunConfig, SweepSpec | None]:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to decode
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return parse_config(raw)
