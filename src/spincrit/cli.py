"""Command-line front end.

Subcommands: steady (one parameter point, full report), sweep (grid of
points), scaling (N sweep plus power-law fit), meanfield (closed forms
only, no solver), selftest (structural invariant suite).

All frequencies are reported in units of gamma; a dimensional --gamma
is accepted and normalized away internally. Exit codes: 0 success,
1 validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import meanfield
from .errors import PhaseDomainError, SolverError, SpincritError, ValidationError
from .harness import (
    SweepSpec,
    compute_report,
    fit_power_law,
    render_sweep,
    row_error,
    run_selftest,
    run_sweep,
)
from .metrology import DEFAULT_EIG_FLOOR
from .operators import ModelParams

_FULL_TASKS = "signals,bounds,qfi_steady,qfi_perturbed,chi2,xi2,gap"


class _Parser(argparse.ArgumentParser):
    """Takes each flag by its full name only: with prefix matching,
    `scaling --n 40` would quietly mean `--n-list 40`."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise ValidationError(f"{message}\n{self.format_usage()}")


def _list_of(kind: type, noun: str):
    """argparse type for a comma-separated list, so a bad item names the flag."""

    def parse(text: str) -> list:
        try:
            return [kind(item) for item in text.split(",") if item.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}"
            ) from None

    return parse


#: every flag, declared once; _SUBCOMMANDS says which subcommands take it
_FLAGS: dict[str, dict] = {
    "n": dict(type=int, default=100, help="number of spins N"),
    "omega": dict(type=float, help="drive amplitude"),
    "omega-frac": dict(type=float, help="drive as a fraction of the critical coupling omega_c"),
    "at-critical": dict(action="store_true", help="run at omega = omega_c(theta)"),
    "gamma": dict(type=float, default=1.0, help="collective jump rate"),
    "theta": dict(type=float, default=0.0, help="squeezing angle in [0, pi/2)"),
    "lambda": dict(
        dest="lambda_name",
        choices=("omega", "theta"),
        default="omega",
        help="parameter being estimated",
    ),
    "generator": dict(default="optimal", help="phase generator: sz | optimal | x | nx,ny,nz"),
    "eig-floor": dict(type=float, default=DEFAULT_EIG_FLOOR, help="population-pair floor"),
    "axis": dict(choices=("omega", "theta", "n_spins"), default="omega"),
    "start": dict(type=float),
    "stop": dict(type=float),
    "points": dict(type=int),
    "values": dict(type=_list_of(float, "numbers"), help="explicit comma-separated grid"),
    "n-list": dict(type=_list_of(int, "integers"), default="20,40,60,80,100,120"),
    "quantity": dict(
        choices=("qfi_steady", "chi2_steady", "qfi_perturbed", "chi2_perturbed"),
        default="qfi_steady",
    ),
    "tasks": dict(default="signals", help="comma-separated task list"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "jobs": dict(type=int, default=1, help="worker processes for sweeps"),
    "seed": dict(type=int, default=0, help="seed of the gap's ARPACK start vector and the selftest"),
    "no-meta": dict(action="store_true", help="suppress the CSV meta line"),
    "out": dict(help="output path (default stdout)"),
    "config": dict(help="flat key-value config file"),
}
#: flags that set the drive; a command line gives at most one of them
_DRIVE = ("omega", "omega-frac", "at-critical")
#: help and flags of each subcommand; every one also takes --out and --config
_SUBCOMMANDS = {
    "steady": (
        "full report at one parameter point",
        "n omega omega-frac gamma theta lambda generator eig-floor tasks format seed no-meta",
    ),
    "sweep": (
        "sweep one axis over a grid",
        "n omega omega-frac gamma theta lambda generator eig-floor"
        " axis start stop points values tasks format jobs seed no-meta",
    ),
    "scaling": (
        "N sweep with a power-law fit",
        "n-list omega omega-frac at-critical gamma theta lambda generator eig-floor"
        " quantity jobs seed",
    ),
    "meanfield": ("closed-form analytics, no solver", "n omega omega-frac gamma theta format"),
    "selftest": ("run the structural invariant suite", "seed"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="spincrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        # argparse cannot print the usage of a parser with an empty group
        takes_drive = any(flag in _DRIVE for flag in flags.split())
        drive = p.add_mutually_exclusive_group() if takes_drive else p
        for flag in flags.split() + ["out", "config"]:
            (drive if flag in _DRIVE else p).add_argument(f"--{flag}", **_FLAGS[flag])
    sub.choices["steady"].set_defaults(tasks=_FULL_TASKS)  # one point: every task
    parser.subcommands = sub.choices
    return parser


def _load_config(path: str) -> list[str]:
    """Flat key-value file, one flag per line, mirrored to CLI tokens."""
    tokens: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" in line:
                    key, value = (part.strip() for part in line.split("=", 1))
                else:
                    parts = line.split(None, 1)
                    key = parts[0]
                    value = parts[1].strip() if len(parts) > 1 else ""
                key = key.replace("_", "-")
                if value.lower() == "false" and _FLAGS.get(key, {}).get("action") == "store_true":
                    continue  # a switch left off
                # one token, so a value that starts with "-" is not a flag
                tokens.append(f"--{key}" if value.lower() in ("true", "") else f"--{key}={value}")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    return tokens


def _normalized(args: argparse.Namespace) -> float:
    """The drive in units of gamma, the unit of everything below the CLI."""
    if not (math.isfinite(args.gamma) and args.gamma > 0):
        raise ValidationError(f"--gamma must be finite and positive, got {args.gamma!r}")
    if args.omega_frac is not None:
        if args.theta >= math.pi / 4:
            raise ValidationError("--omega-frac needs omega_c > 0 (theta < pi/4)")
        return args.omega_frac * math.cos(2 * args.theta)
    return (args.omega if args.omega is not None else 0.0) / args.gamma


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output path {out_path!r}: {exc}") from exc


def _spec_from_args(
    args: argparse.Namespace, omega: float, axis: str, values, tasks: str
) -> SweepSpec:
    # steady takes no --jobs (one point) and scaling no --n (--n-list
    # sets N); SweepSpec's own default stands in for the one not parsed
    return SweepSpec(
        n_spins=getattr(args, "n", SweepSpec.n_spins),
        omega=omega,
        theta=args.theta,
        axis=axis,
        values=tuple(values),
        tasks=tuple(t.strip() for t in tasks.split(",") if t.strip()),
        lambda_name=args.lambda_name,
        generator=args.generator,
        eig_floor=args.eig_floor,
        jobs=getattr(args, "jobs", SweepSpec.jobs),
        seed=args.seed,
    )


def _cmd_steady(args: argparse.Namespace) -> int:
    omega = _normalized(args)
    spec = _spec_from_args(args, omega, "omega", [omega], args.tasks)
    spec.validate()
    report = compute_report(ModelParams(args.n, omega, theta=args.theta), spec)
    _emit(render_sweep([report], spec, args.format, no_meta=args.no_meta), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.values is not None:
        values = args.values
    elif args.start is not None and args.stop is not None and args.points is not None:
        if args.points < 1:
            raise ValidationError("--points must be positive")
        if args.points == 1:
            values = [args.start]
        else:
            width = (args.stop - args.start) / (args.points - 1)
            values = [args.start + i * width for i in range(args.points)]
    else:
        raise ValidationError("sweep needs either --values or --start/--stop/--points")
    spec = _spec_from_args(args, _normalized(args), args.axis, values, args.tasks)
    rows = run_sweep(spec)
    _emit(render_sweep(rows, spec, args.format, no_meta=args.no_meta), args.out)
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    n_values = args.n_list
    if len(n_values) < 4:
        raise ValidationError("scaling needs at least 4 N values")
    if args.at_critical:
        if args.theta >= math.pi / 4:
            raise ValidationError("--at-critical needs theta < pi/4")
        args.omega_frac = 1.0
    task = "qfi_steady" if "steady" in args.quantity else "qfi_perturbed"
    tasks = task if args.quantity.startswith("qfi") else f"{task},chi2"
    spec = _spec_from_args(args, _normalized(args), "n_spins", n_values, tasks)
    rows = run_sweep(spec)
    failed = sum("error" in row for row in rows)
    if failed:
        raise row_error(rows, f"{failed} scaling points failed")
    ys = [row.get(args.quantity) for row in rows]
    payload = {
        "quantity": args.quantity,
        **asdict(fit_power_law(n_values, ys)),
        "reference_exponents": asdict(meanfield.scaling_exponents()),
        "points": [{"n": n, args.quantity: float(y)} for n, y in zip(n_values, ys)],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_meanfield(args: argparse.Namespace) -> int:
    omega = _normalized(args)
    params = ModelParams(args.n, omega, theta=args.theta)
    predicted = meanfield.predictions(params)
    if "sy" not in predicted:  # thermal phase: only m = sz = 0 is predicted
        raise PhaseDomainError(meanfield.THERMAL_PHASE)
    payload = {
        "n": args.n,
        "omega_over_gamma": omega,
        "theta": args.theta,
        "omega_c": params.omega_c,
        **predicted,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"{key} = {value}" for key, value in payload.items() if value is not None]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    checks = run_selftest(seed=args.seed)
    width = max(len(c.name) for c in checks)
    lines = [
        f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}"
        for c in checks
    ]
    ok = all(c.passed for c in checks)
    lines.append(f"{'PASS' if ok else 'FAIL'}  selftest ({sum(c.passed for c in checks)}/{len(checks)} checks)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


_COMMANDS = {
    "steady": _cmd_steady,
    "sweep": _cmd_sweep,
    "scaling": _cmd_scaling,
    "meanfield": _cmd_meanfield,
    "selftest": _cmd_selftest,
}


def cli_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # splice config-file tokens ahead of explicit flags so the
        # command line wins on conflicts; a parser of its own reads
        # --config in every spelling the full parser accepts
        config_parser = _Parser(add_help=False)
        config_parser.add_argument("--config")
        config = config_parser.parse_known_args(argv)[0].config
        if config is not None:
            argv = argv[:1] + _load_config(config) + argv[1:]
        args, stray = parser.parse_known_args(argv)
        if stray:  # report them with the usage of the subcommand given them
            parser.subcommands[args.command].error(f"unrecognized arguments: {' '.join(stray)}")
        return _COMMANDS[args.command](args)
    except (ValidationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 2
    except SpincritError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
