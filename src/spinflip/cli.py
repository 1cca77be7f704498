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
from .errors import ConfigError, DomainError, SpinflipError
from .figures import FIGURES, figure_curves, reproduce
from .materials import material_presets
from .quadrature import QuadratureSettings
from .rates import spin_flip_rate
from .sweep import VARIANTS, RunConfig, emit_csv, load_config, override_tolerance, run_sweep

USAGE_ERROR = 1
COMPUTATION_ERROR = 2


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _tolerance(text: str) -> float:
    """--tol value: a rel_tol that QuadratureSettings accepts."""
    try:
        return QuadratureSettings(rel_tol=float(text)).rel_tol
    except DomainError as exc:
        raise argparse.ArgumentTypeError(f"tolerance {text}: {exc}") from None


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

    def common(p, needs_out, **handler):
        p.set_defaults(**handler)
        p.add_argument("--config", required=True, help="JSON configuration file")
        if needs_out:
            p.add_argument("--out", required=True, help="output CSV path")
        tol_and_quiet(p)

    # Each subcommand carries its handler: main calls args.run(args).
    common(sub.add_parser("rate", help="single rate/lifetime evaluation"), False, run=_cmd_rate)
    common(sub.add_parser("sweep", help="run the configured sweep"), True,
           run=_cmd_table, want_axis=None)
    common(sub.add_parser("screening", help="thickness sweep of S(d)"), True,
           run=_cmd_table, want_axis="thickness_d")
    sub.add_parser("materials", help="list built-in materials").set_defaults(run=_cmd_materials)
    rep = sub.add_parser("reproduce", help="reproduce the canonical figures")
    rep.set_defaults(run=_cmd_reproduce)
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


def _cmd_table(args) -> int:
    config, spec = load_config(args.config)
    if spec is None:
        raise ConfigError("configuration carries no 'sweep' section")
    if args.want_axis is not None and spec.axis != args.want_axis:
        raise ConfigError(f"this subcommand requires sweep.axis = {args.want_axis!r}")
    config = override_tolerance(config, args.tol)
    _validity_notes(config, args.quiet)
    table = run_sweep(spec, config)
    emit_csv(table, args.out)
    if not args.quiet:
        print(f"wrote {table.rows} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_materials(args) -> int:
    for m in material_presets():
        variant = next(v for v, (model, *_) in VARIANTS.items() if type(m) is model)
        print(f"{m.label}: {variant}" + VARIANTS[variant][-1].format(m=m))
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


def main(argv=None) -> int:
    # A shown warning is one "warning: <message>" line; recorders still record it.
    shown, warnings.formatwarning = warnings.formatwarning, lambda msg, *_: f"warning: {msg}\n"
    try:
        args = _build_parser().parse_args(argv)
        with warnings.catch_warnings():
            if getattr(args, "quiet", False):
                # The quasi-static validity warning is a validity note too.
                warnings.simplefilter("ignore", UserWarning)
            return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SpinflipError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return COMPUTATION_ERROR
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
