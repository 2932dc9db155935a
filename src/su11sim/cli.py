"""Command-line interface: sweep, figure, sensitivity, visibility, validate.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 per-point
errors present in a sweep.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, closed_form, metrics, sweep
from .errors import DomainError, Su11Error
from .metrics import ShotNoiseConvention

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_POINT_ERRORS = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_key_flags(p: argparse.ArgumentParser, keys):
    """One flag per config key, named after it; an unset flag stays None."""
    for key in keys:
        if key.default is False:
            # a switch, also spelled with hyphens
            p.add_argument(f"--{key.name}", f"--{key.name.replace('_', '-')}",
                           action="store_const", const=True, help=key.help)
        else:
            p.add_argument(f"--{key.name}", type=key.parse, choices=key.choices,
                           help=key.help)


def _flag_values(args) -> dict:
    """The typed values of the config-key flags given on the command line."""
    given = ((key.name, getattr(args, key.name, None)) for key in sweep.CONFIG_KEYS)
    return {name: v for name, v in given if v is not None}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="su11", description=__doc__)
    parser.add_argument("--version", action="version", version=f"su11sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p.add_argument("--config", type=Path, help="flat key/value config file")
    _add_key_flags(p, sweep.CONFIG_KEYS)
    p.add_argument("--out", type=Path, default=None, help="CSV output path (default stdout)")
    p.add_argument("--json", type=Path, default=None, help="also write a JSON mirror here")

    p = sub.add_parser("figure", help="emit one of the preset figure tables")
    p.add_argument("name", choices=sweep.FIGURES)
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.add_argument(
        "--snl_convention",
        choices=[c.value for c in ShotNoiseConvention],
        default=ShotNoiseConvention.PAIR_AFTER_OPA1.value,
    )
    p.add_argument("--axis-total", action="store_true")
    p.add_argument("--json", action="store_true", help="also write a JSON mirror")

    p = sub.add_parser("sensitivity", help="optimal phase sensitivity for one config")
    _add_key_flags(p, sweep.DEVICE_KEYS)

    p = sub.add_parser("visibility", help="interference visibility for one config")
    _add_key_flags(p, sweep.DEVICE_KEYS)

    p = sub.add_parser("validate", help="three-way oracle agreement suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--points", type=int, default=100)

    return parser


def _read_config(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _probe_outputs(paths: list[Path]) -> None:
    """Open each output path for appending and close it again, so that one
    that cannot be written fails before any output is: the probe truncates
    nothing, and on a failure removes the files it made."""
    new = [path for path in paths if not path.exists()]
    try:
        for path in paths:
            path.open("a").close()
    except OSError:
        for path in new:
            if path.exists():
                path.unlink()
        raise


def _cmd_sweep(args) -> int:
    entries = {}
    if args.config is not None:
        entries = sweep.parse_config_text(_read_config(args.config))
    spec = sweep.spec_from_config(entries, _flag_values(args))
    table = sweep.run_sweep(spec)
    _probe_outputs([path for path in (args.out, args.json) if path is not None])
    write_csv = sys.stdout.write if args.out is None else args.out.write_text
    write_csv(sweep.sweep_to_csv(spec, table))
    if args.json is not None:
        args.json.write_text(sweep.sweep_to_json(spec, table))
    return EXIT_POINT_ERRORS if any(table.errors) else EXIT_OK


def _cmd_figure(args) -> int:
    paths = sweep.write_figure(
        args.name,
        args.outdir,
        convention=ShotNoiseConvention(args.snl_convention),
        axis_total=args.axis_total,
        json_mirror=args.json,
    )
    for path in paths:
        print(path)
    return EXIT_OK


def _device(args):
    return sweep.device_from_values(sweep.config_values({}, _flag_values(args)))


def _cmd_sensitivity(args) -> int:
    cfg, conv = _device(args)
    report = metrics.optimal_sensitivity(cfg, conv)
    print(json.dumps(vars(report), indent=2))
    return EXIT_OK


def _cmd_visibility(args) -> int:
    cfg, _ = _device(args)
    v_num = metrics.visibility_numeric(cfg)
    v_cf = closed_form.visibility(cfg)
    print(json.dumps({"visibility": v_num, "visibility_closed_form": v_cf}, indent=2))
    return EXIT_OK


def _cmd_validate(args) -> int:
    report = sweep.validate(args.seed, args.points)
    print(f"validation: {report.points} points, seed {args.seed}")
    for check, dev in sorted(report.worst.items()):
        print(f"  worst {check}: {dev:.3e}")
        cfg = report.worst_at[check]
        values = (f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg))
        print("    at " + " ".join(values))
    for flag in report.flagged:
        print(f"  flagged: {flag}")
    if report.failures:
        for failure in report.failures:
            print(f"  FAIL {failure}")
        print("validation: FAILED")
        return EXIT_VALIDATION
    print("validation: all checks passed")
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "sensitivity": _cmd_sensitivity,
    "visibility": _cmd_visibility,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Su11Error as exc:
        message = str(exc)
    except OSError as exc:  # a file that cannot be read or written
        message = str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}"
    print(f"su11: error: {message}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
