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
from .errors import SolverError, SpincritError, ValidationError
from .harness import (
    SweepSpec,
    compute_report,
    fit_power_law,
    render_sweep,
    run_selftest,
    run_sweep,
)
from .operators import ModelParams

_FULL_TASKS = "signals,bounds,qfi_steady,qfi_perturbed,chi2,xi2,gap"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise ValidationError(f"{message}\n{self.format_usage()}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=100, help="number of spins N")
    parser.add_argument("--omega", type=float, default=None, help="drive amplitude")
    parser.add_argument(
        "--omega-frac",
        type=float,
        default=None,
        help="drive as a fraction of the critical coupling omega_c",
    )
    parser.add_argument("--gamma", type=float, default=1.0, help="collective jump rate")
    parser.add_argument("--theta", type=float, default=0.0, help="squeezing angle in [0, pi/2)")
    parser.add_argument(
        "--lambda",
        dest="lambda_name",
        choices=("omega", "theta"),
        default="omega",
        help="parameter being estimated",
    )
    parser.add_argument(
        "--generator",
        default="optimal",
        help="phase generator: sz | optimal | x | nx,ny,nz",
    )
    parser.add_argument("--step", type=float, default=None, help="finite-difference step")
    parser.add_argument("--eig-floor", type=float, default=1e-12, help="population-pair floor")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized probes")
    parser.add_argument("--no-meta", action="store_true", help="suppress the CSV meta line")
    parser.add_argument("--config", default=None, help="flat key-value config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="spincrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_steady = sub.add_parser("steady", help="full report at one parameter point")
    _add_common(p_steady)
    p_steady.add_argument("--tasks", default=_FULL_TASKS, help="comma-separated task list")

    p_sweep = sub.add_parser("sweep", help="sweep one axis over a grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=("omega", "theta", "n_spins"), default="omega")
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.add_argument("--points", type=int, default=None)
    p_sweep.add_argument("--values", default=None, help="explicit comma-separated grid")
    p_sweep.add_argument("--tasks", default="signals", help="comma-separated task list")

    p_scaling = sub.add_parser("scaling", help="N sweep with a power-law fit")
    _add_common(p_scaling)
    p_scaling.add_argument("--n-list", default="20,40,60,80,100,120")
    p_scaling.add_argument(
        "--at-critical",
        action="store_true",
        help="run at omega = omega_c(theta)",
    )
    p_scaling.add_argument(
        "--quantity",
        choices=("qfi_steady", "chi2_steady", "qfi_perturbed", "chi2_perturbed"),
        default="qfi_steady",
    )

    p_mf = sub.add_parser("meanfield", help="closed-form analytics, no solver")
    _add_common(p_mf)

    p_self = sub.add_parser("selftest", help="run the structural invariant suite")
    _add_common(p_self)
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
                flag = "--" + key.replace("_", "-")
                if value.lower() in ("true", ""):
                    tokens.append(flag)
                else:
                    tokens.extend([flag, value])
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    return tokens


def _resolve_omega(args: argparse.Namespace) -> float:
    if args.omega is not None and args.omega_frac is not None:
        raise ValidationError("--omega and --omega-frac are mutually exclusive")
    if args.omega_frac is not None:
        if args.theta >= math.pi / 4:
            raise ValidationError("--omega-frac needs omega_c > 0 (theta < pi/4)")
        return args.omega_frac * math.cos(2 * args.theta)  # gamma-normalized units
    return args.omega if args.omega is not None else 0.0


def _normalized(args: argparse.Namespace) -> tuple[float, float]:
    """(omega, gamma=1): frequencies are reported in units of gamma."""
    if not (math.isfinite(args.gamma) and args.gamma > 0):
        raise ValidationError(f"--gamma must be finite and positive, got {args.gamma!r}")
    omega = _resolve_omega(args)
    if args.omega_frac is None:
        omega = omega / args.gamma
    return omega, 1.0


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output path {out_path!r}: {exc}") from exc


def _spec_from_args(args: argparse.Namespace, axis: str, values, tasks: str) -> SweepSpec:
    omega, gamma = _normalized(args)
    return SweepSpec(
        n_spins=args.n,
        omega=omega,
        gamma=gamma,
        theta=args.theta,
        axis=axis,
        values=tuple(values),
        tasks=tuple(t.strip() for t in tasks.split(",") if t.strip()),
        lambda_name=args.lambda_name,
        generator=args.generator,
        step=args.step,
        eig_floor=args.eig_floor,
        jobs=args.jobs,
        seed=args.seed,
    )


def _cmd_steady(args: argparse.Namespace) -> int:
    omega, gamma = _normalized(args)
    spec = _spec_from_args(args, "omega", [omega], args.tasks)
    spec.validate()
    params = ModelParams(args.n, omega, gamma, args.theta)
    report = compute_report(params, spec)
    _emit(render_sweep([report], spec, args.format, no_meta=args.no_meta), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.values is not None:
        values = [float(v) for v in args.values.split(",") if v.strip()]
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
    spec = _spec_from_args(args, args.axis, values, args.tasks)
    rows = run_sweep(spec)
    _emit(render_sweep(rows, spec, args.format, no_meta=args.no_meta), args.out)
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    n_values = [int(v) for v in args.n_list.split(",") if v.strip()]
    if len(n_values) < 4:
        raise ValidationError("scaling needs at least 4 N values")
    if args.at_critical:
        if args.theta >= math.pi / 4:
            raise ValidationError("--at-critical needs theta < pi/4")
        args.omega, args.omega_frac = None, 1.0
    task = "qfi_steady" if "steady" in args.quantity else "qfi_perturbed"
    tasks = task if args.quantity.startswith("qfi") else f"{task},chi2"
    spec = _spec_from_args(args, "n_spins", n_values, tasks)
    rows = run_sweep(spec)
    failed = [row for row in rows if "error" in row]
    if failed:
        raise SolverError(f"{len(failed)} scaling points failed: {failed[0]['error']}")
    ys = [row.get(args.quantity) for row in rows]
    fit = fit_power_law(n_values, ys)
    exps = meanfield.scaling_exponents()
    reference = {
        "d_nu": exps.d_nu,
        "critical_qfi": exps.critical_qfi,
        "critical_chi": exps.critical_chi,
        "off_critical_bound": exps.off_critical_bound,
    }
    payload = {"quantity": args.quantity, **asdict(fit), "reference_exponents": reference}
    payload["points"] = [
        {"n": int(n), args.quantity: float(y)} for n, y in zip(n_values, ys)
    ]
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_meanfield(args: argparse.Namespace) -> int:
    omega, gamma = _normalized(args)
    # rho(-omega) = conj rho(omega): the values at |omega| with <Sy> negated
    sign = -1.0 if omega < 0 else 1.0
    params = ModelParams(args.n, abs(omega), gamma, args.theta)
    coeffs = meanfield.hp_coefficients(params)
    gauss = meanfield.gaussian_steady_state(coeffs)
    signals = meanfield.predict_signals(coeffs, args.n)
    qfi, chi2 = meanfield.analytic_qfi_chi(params, args.n)
    payload = {
        "n": args.n,
        "omega_over_gamma": omega,
        "theta": args.theta,
        "omega_c": params.omega_c,
        "m": coeffs.m,
        "sy": sign * signals.sy,
        "sz": signals.sz,
        "var_sy": signals.var_sy,
        "var_sz": signals.var_sz,
        "bound_omega": meanfield.bound_omega(params, args.n),
        "bound_theta": (
            meanfield.bound_theta(params, args.n) if params.omega > 0 and args.theta > 0 else None
        ),
        "optimal_theta": meanfield.optimal_theta(params.omega, gamma) if params.omega > 0 else None,
        "r": gauss.r,
        "sigma11": gauss.sigma11,
        "sigma22": gauss.sigma22,
        "purity": gauss.purity,
        "qfi": qfi,
        "chi2": chi2,
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
        args = parser.parse_args(argv)
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
