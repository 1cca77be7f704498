"""Command-line interface.

Subcommands:

* ``rate``        single lifetime evaluation, prints key=value lines
* ``sweep``       run the sweep in a config file, write CSV
* ``screening``   thickness sweep of the screening factor S(d), write CSV
* ``materials``   list built-in material models and validity metadata
* ``reproduce``   run the canonical figure configs (fig2..fig5; all four
                  when none is named)

Exit codes: 0 success, 1 usage/configuration error, 2 computation error.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import __version__
from .constants import real_in_range
from .errors import ConfigError, SpinflipError
from .figures import FIGURES, figure_curves, reproduce
from .materials import (DrudeMetal, IsotropicSuperconductor,
                        UniaxialSuperconductor, Vacuum, material_presets)
from .rates import spin_flip_rate
from .sweep import RunConfig, emit_csv, load_config, override_tolerance, run_sweep

USAGE_ERROR = 1
COMPUTATION_ERROR = 2


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _tolerance(text: str) -> float:
    """--tol value: a positive finite number."""
    value = float(text)
    if not real_in_range(value):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="spinflip", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"spinflip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def tol_and_quiet(p):
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="override quadrature relative tolerance")
        p.add_argument("--quiet", action="store_true",
                       help="suppress validity notes and warnings")

    def common(p, needs_out):
        p.add_argument("--config", required=True, help="JSON configuration file")
        if needs_out:
            p.add_argument("--out", required=True, help="output CSV path")
        tol_and_quiet(p)

    common(sub.add_parser("rate", help="single rate/lifetime evaluation"), False)
    common(sub.add_parser("sweep", help="run the configured sweep"), True)
    common(sub.add_parser("screening", help="thickness sweep of S(d)"), True)
    sub.add_parser("materials", help="list built-in materials")
    rep = sub.add_parser("reproduce", help="reproduce the canonical figures")
    # No argparse choices: they reject an empty nargs="*" list on Python 3.11;
    # figure_curves rejects an unknown name instead.
    rep.add_argument("figures", nargs="*", metavar="FIGURE",
                     help=f"one of {', '.join(FIGURES)}; all of them when none is named")
    rep.add_argument("--out", default=".", help="output directory")
    tol_and_quiet(rep)
    return parser


def _validity_notes(config: RunConfig, quiet: bool):
    if quiet:
        return
    for layer in config.stack.layers:
        m = layer.material
        bc1 = getattr(m, "first_critical_field", None)
        if bc1 is not None:
            print(f"note: {m.label}: results assume the Meissner state "
                  f"(local fields below the first critical field, {bc1 * 1e3:.0f} mT)",
                  file=sys.stderr)


def _cmd_rate(args) -> int:
    config, _ = load_config(args.config)
    config = override_tolerance(config, args.tol)
    _validity_notes(config, args.quiet)
    result = spin_flip_rate(config.stack, config.z, config.transition,
                            None, config.settings)
    print(f"gamma_field_per_s={result.gamma_field:.17g}")
    print(f"n_th={result.n_th:.17g}")
    print(f"gamma_total_per_s={result.gamma_total:.17g}")
    print(f"tau_s={result.tau:.17g}")
    print(f"evaluations={result.diagnostics.evaluations}")
    print(f"truncation_eta_per_m={result.diagnostics.truncation_eta:.17g}")
    print(f"est_error={result.diagnostics.est_error:.17g}")
    return 0


def _cmd_table(args, want_axis: str | None) -> int:
    config, spec = load_config(args.config)
    if spec is None:
        raise ConfigError("configuration carries no 'sweep' section")
    if want_axis is not None and spec.axis != want_axis:
        raise ConfigError(f"this subcommand requires sweep.axis = {want_axis!r}")
    config = override_tolerance(config, args.tol)
    _validity_notes(config, args.quiet)
    table = run_sweep(spec, config)
    emit_csv(table, args.out)
    if not args.quiet:
        print(f"wrote {table.rows} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_materials() -> int:
    for m in material_presets():
        if isinstance(m, Vacuum):
            print(f"{m.label}: vacuum")
        elif isinstance(m, DrudeMetal):
            print(f"{m.label}: drude_metal sigma={m.sigma:g} S/m")
        elif isinstance(m, IsotropicSuperconductor):
            p = m.params
            print(f"{m.label}: isotropic_sc lambda0={p.lambda0:g} m Tc={p.Tc:g} K "
                  f"alpha={p.alpha:g} sigma_normal={p.sigma_normal:g} S/m "
                  f"[Bc1={m.first_critical_field:g} T, "
                  f"gap={m.gap_frequency:g} Hz; Meissner state assumed]")
        elif isinstance(m, UniaxialSuperconductor):
            t, l = m.transverse, m.longitudinal
            print(f"{m.label}: uniaxial_sc lambda_par0={t.lambda0:g} m "
                  f"lambda_perp0={l.lambda0:g} m Tc={t.Tc:g} K alpha={t.alpha:g} "
                  f"sigma_normal_par={t.sigma_normal:g} S/m "
                  f"sigma_normal_perp={l.sigma_normal:g} S/m "
                  f"[Bc1={m.first_critical_field:g} T, "
                  f"gap={m.gap_frequency:g} Hz; Meissner state assumed]")
    return 0


def _cmd_reproduce(args) -> int:
    names = args.figures or FIGURES
    for name in names:
        figure_curves(name)  # an unknown name fails before any figure runs
    for name in names:
        for path in reproduce(name, args.out, rel_tol=args.tol):
            if not args.quiet:
                print(path)
    return 0


_COMMANDS = {
    "rate": _cmd_rate,
    "sweep": lambda args: _cmd_table(args, None),
    "screening": lambda args: _cmd_table(args, "thickness_d"),
    "materials": lambda args: _cmd_materials(),
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        with warnings.catch_warnings():
            if getattr(args, "quiet", False):
                # The quasi-static validity warning is a validity note too.
                warnings.simplefilter("ignore", UserWarning)
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SpinflipError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return COMPUTATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
