"""Parameter sweeps, scaling fits, structured output, and the selftest.

Sweep rows are independent parameter points; they can fan out to a
process pool and are always emitted in grid order, so the output is
deterministic for a fixed spec regardless of the worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import errors, meanfield
from .errors import DegenerateSteadyStateError, SpincritError, ValidationError
from .liouvillian import (
    DEGENERACY_TOL,
    build_generator,
    liouvillian_spectrum,
    solve_steady_state,
)
from .metrology import (
    DEFAULT_EIG_FLOOR,
    chi_squared,
    qfi_perturbed,
    signal_bound,
    spectral_qfi,
    xi_squared,
)
# reports no longer call these two; bench/tracer.py wraps them by name
from .metrology import error_propagation, qfi_steady  # noqa: F401
from .operators import (
    ModelParams,
    build_operators,
    expectation,
    spin_direction_operator,
    trace_distance,
    variance,
)

#: CSV columns contributed by each task, in emission order. A row is a
#: dict keyed by these names plus n, omega_over_gamma, theta and error.
TASK_COLUMNS: dict[str, tuple[str, ...]] = {
    "signals": ("sx", "sy", "sz", "var_sy", "var_sz"),
    "bounds": ("eprop_sy", "eprop_sz"),
    "qfi_steady": ("qfi_steady",),
    "qfi_perturbed": ("qfi_perturbed",),
    "chi2": ("chi2_steady", "chi2_perturbed"),
    "xi2": ("xi2", "xi2_nx", "xi2_ny", "xi2_nz"),
    "gap": ("gap",),
    "meanfield": (
        "mf_m",
        "mf_sy",
        "mf_sz",
        "mf_var_sy",
        "mf_var_sz",
        "mf_bound_omega",
        "mf_r",
        "mf_qfi",
        "mf_chi2",
    ),
}
KNOWN_TASKS = tuple(TASK_COLUMNS)

_SOLVE_TASKS = {"signals", "bounds", "qfi_steady", "qfi_perturbed", "chi2", "xi2"}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: fixed parameters, a swept axis, and tasks to compute."""

    n_spins: int = 100
    omega: float = 0.0
    theta: float = 0.0
    axis: str = "omega"
    values: tuple[float, ...] = ()
    tasks: tuple[str, ...] = ("signals",)
    lambda_name: str = "omega"
    generator: str = "optimal"
    eig_floor: float = DEFAULT_EIG_FLOOR
    jobs: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.axis not in ("omega", "theta", "n_spins"):
            raise ValidationError(f"unknown sweep axis {self.axis!r}")
        if not self.tasks:
            raise ValidationError("task list must not be empty")
        unknown = [t for t in self.tasks if t not in KNOWN_TASKS]
        if unknown:
            raise ValidationError(f"unknown tasks {unknown}; known: {list(KNOWN_TASKS)}")
        if len(self.values) == 0:
            raise ValidationError("sweep needs at least one grid value")
        if self.axis == "n_spins" and not all(float(v).is_integer() for v in self.values):
            raise ValidationError(f"n_spins axis needs integer values, got {list(self.values)}")
        diffs = np.diff(self.values)
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValidationError("swept values must be strictly monotone")
        if self.jobs < 1:
            raise ValidationError("jobs must be >= 1")
        if self.lambda_name not in ("omega", "theta"):
            raise ValidationError("lambda must be 'omega' or 'theta'")
        if not (math.isfinite(self.eig_floor) and self.eig_floor >= 0):
            raise ValidationError(
                f"eig_floor must be finite and nonnegative, got {self.eig_floor!r}"
            )
        # parse the generator name once, on a one-spin point
        resolve_generator(self.generator, ModelParams(1, 0.0))


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit y = a * x^b on log-log axes."""

    exponent: float
    prefactor: float
    exponent_stderr: float
    prefactor_stderr: float
    r_squared: float
    n_points: int
    window: tuple[float, float]


def fit_power_law(xs, ys) -> ScalingFit:
    """Least-squares fit of log y against log x; needs >= 4 points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValidationError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 4:
        raise ValidationError("power-law fit needs at least 4 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("power-law fit needs positive xs and ys")
    lx, ly = np.log(xs), np.log(ys)
    (b, c), cov = np.polyfit(lx, ly, 1, cov=True)
    pred = b * lx + c
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    a = math.exp(c)
    return ScalingFit(
        exponent=float(b),
        prefactor=a,
        exponent_stderr=float(np.sqrt(cov[0, 0])),
        prefactor_stderr=a * float(np.sqrt(cov[1, 1])),
        r_squared=r2,
        n_points=len(xs),
        window=(float(xs.min()), float(xs.max())),
    )


def resolve_generator(spec_name: str, params: ModelParams) -> np.ndarray:
    """Turn a generator name into a Hermitian matrix.

    'sz' and 'x' are the bare projections; 'optimal' is the
    mean-field-optimal M*Sy + sqrt(1-M^2)*Sz (which degrades to Sz at
    the critical coupling where M = 0), with -M for omega < 0, where
    the steady state is the complex conjugate; 'nx,ny,nz' is a custom
    direction of finite components, normalized here.
    """
    ops = build_operators(params)
    name = spec_name.strip().lower()
    if name == "sz":
        return np.asarray(ops.sz)
    if name == "x":
        return np.asarray(ops.sx)
    if name == "optimal":
        m = meanfield.magnetization(params)
        if params.omega < 0:
            m = -m
        direction = np.array([0.0, m, math.sqrt(max(0.0, 1.0 - m * m))])
        direction /= np.linalg.norm(direction)
        return spin_direction_operator(ops, direction)
    try:
        vec = np.array([float(p) for p in name.split(",")])
    except ValueError:
        vec = np.array([])
    if vec.size != 3 or not np.isfinite(vec).all():
        raise ValidationError(
            f"unknown generator {spec_name!r}; use sz | optimal | x | nx,ny,nz"
        )
    nrm = math.hypot(*vec)
    if nrm == 0:
        raise ValidationError("custom generator direction must be nonzero")
    return spin_direction_operator(ops, vec / nrm)


def _coordinates(n_spins: int, omega: float, theta: float) -> dict:
    return {"n": n_spins, "omega_over_gamma": omega, "theta": theta}


def compute_report(params: ModelParams, spec: SweepSpec) -> dict:
    """Evaluate all requested tasks at one parameter point.

    Returns one row: a dict keyed by CSV column name. A column whose
    task did not run, or produced no value, is absent.
    """
    row = _coordinates(params.n_spins, params.omega, params.theta)
    tasks = set(spec.tasks)
    if "chi2" in tasks and not tasks & {"qfi_steady", "qfi_perturbed"}:
        tasks.add("qfi_perturbed")

    if "meanfield" in tasks:
        predicted = meanfield.predictions(params)
        row.update((c, predicted[c[3:]]) for c in TASK_COLUMNS["meanfield"] if c[3:] in predicted)

    if not tasks & _SOLVE_TASKS:
        if "gap" in tasks:
            row["gap"] = liouvillian_spectrum(build_generator(params), k=2, seed=spec.seed).gap
        return row

    gen = build_generator(params)
    steady = solve_steady_state(gen)
    if "gap" in tasks:
        row["gap"] = liouvillian_spectrum(gen, k=2, seed=spec.seed).gap
    ops = gen.ops
    s_len = params.s
    syn = np.asarray(ops.sy) / s_len
    szn = np.asarray(ops.sz) / s_len

    if "signals" in tasks:
        row["sx"] = expectation(np.asarray(ops.sx) / s_len, steady.rho)
        row["sy"] = expectation(syn, steady.rho)
        row["sz"] = expectation(szn, steady.rho)
        row["var_sy"] = variance(syn, steady.rho)
        row["var_sz"] = variance(szn, steady.rho)

    if "bounds" in tasks or "qfi_steady" in tasks:
        drho = gen.state_derivative(spec.lambda_name)
        if "bounds" in tasks:
            row["eprop_sy"] = signal_bound(syn, steady.rho, drho)
            row["eprop_sz"] = signal_bound(szn, steady.rho, drho)
        if "qfi_steady" in tasks:
            row["qfi_steady"] = spectral_qfi(steady, drho, spec.eig_floor)
            if "chi2" in tasks and row["qfi_steady"] > 0:
                row["chi2_steady"] = chi_squared(row["qfi_steady"], params.n_spins)

    if "qfi_perturbed" in tasks:
        gmat = resolve_generator(spec.generator, params)
        row["qfi_perturbed"] = qfi_perturbed(steady, gmat, eig_floor=spec.eig_floor)
        if "chi2" in tasks and row["qfi_perturbed"] > 0:
            row["chi2_perturbed"] = chi_squared(row["qfi_perturbed"], params.n_spins)

    if "xi2" in tasks:
        squeezing = xi_squared(steady, params)
        row["xi2"] = squeezing.value
        row["xi2_nx"], row["xi2_ny"], row["xi2_nz"] = squeezing.optimal_direction

    return row


def _run_point(args: tuple[SweepSpec, float]) -> dict:
    spec, value = args
    point = {"n_spins": spec.n_spins, "omega": spec.omega, "theta": spec.theta}
    point[spec.axis] = int(value) if spec.axis == "n_spins" else float(value)
    try:
        return compute_report(ModelParams(**point), spec)
    except (SpincritError, ValueError) as exc:
        return {**_coordinates(**point), "error": f"{type(exc).__name__}: {exc}"}


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _worker_pool(jobs: int):
    """Process pool whose workers share the cores instead of each taking all.

    A BLAS library reads its thread count once, when numpy is imported,
    so forked workers would each keep the parent's one-thread-per-core
    pool. Every thread variable the user left unset is set to
    max(1, cpu_count // jobs) for spawned workers, which import numpy
    afresh; user-set values take precedence. When the user set all of
    them a forked worker already runs with those counts, and fork skips
    the re-import.
    """
    unset = [name for name in _BLAS_THREAD_VARS if name not in os.environ]
    limit = str(max(1, (os.cpu_count() or 1) // jobs))
    os.environ.update(dict.fromkeys(unset, limit))
    try:
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn") if unset else None,
        ) as pool:
            yield pool
    finally:
        for name in unset:
            os.environ.pop(name, None)


def row_error(rows: list[dict], message: str) -> Exception:
    """`message` and the first failed row's error, as the class its cell names.

    _run_point catches ValueError and the classes of errors, nothing else.
    """
    first = next(row["error"] for row in rows if "error" in row)
    return getattr(errors, first.split(":", 1)[0], ValueError)(f"{message}: {first}")


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid value, in grid order; failures stay per-row unless all fail."""
    spec.validate()
    jobs = [(spec, value) for value in spec.values]
    if spec.jobs > 1 and len(jobs) > 1:
        with _worker_pool(spec.jobs) as pool:
            rows = list(pool.map(_run_point, jobs))
    else:
        rows = [_run_point(job) for job in jobs]
    if rows and all("error" in row for row in rows):
        raise row_error(rows, f"all {len(rows)} sweep rows failed; first error")
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12g}"
    return str(value)


def csv_columns(tasks: tuple[str, ...]) -> list[str]:
    """Column set is a function of the task list only."""
    cols = ["n", "omega_over_gamma", "theta"]
    for task in KNOWN_TASKS:
        if task in tasks:
            cols.extend(TASK_COLUMNS[task])
    cols.append("error")
    return cols


def _json_value(value):
    # JSON has no infinities or NaN; they go out as the CSV spells them
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def render_sweep(rows: list[dict], spec: SweepSpec, fmt: str, no_meta: bool = False) -> str:
    """Rows as CSV text (after a meta line unless no_meta) or as JSON."""
    columns = csv_columns(spec.tasks)
    if fmt == "json":
        records = [{col: _json_value(row.get(col)) for col in columns} for row in rows]
        return json.dumps(records, indent=2) + "\n"
    if fmt != "csv":
        raise ValidationError(f"unknown output format {fmt!r}")
    lines = []
    if not no_meta:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(
            f"# spincrit sweep generated={stamp} axis={spec.axis} "
            f"tasks={','.join(spec.tasks)} seed={spec.seed}"
        )
    lines.append(",".join(columns))
    lines += [",".join(_fmt(row.get(col)) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelftestCheck:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> SelftestCheck:
    return SelftestCheck(name, bool(passed), detail)


def _check_su2(seed: int) -> SelftestCheck:
    worst = 0.0
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        params = ModelParams(n, 0.0, theta=0.3)
        ops = build_operators(params)
        s = params.s
        scale = max(1.0, s * s)
        comm = ops.sx @ ops.sy - ops.sy @ ops.sx - 1j * ops.sz
        casimir = (
            ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
            - s * (s + 1) * np.eye(n + 1)
        )
        ladder = np.abs(ops.s_plus - ops.s_minus.conj().T).max()
        worst = max(
            worst,
            np.abs(comm).max() / scale,
            np.abs(casimir).max() / scale,
            ladder / scale,
        )
    return _check("su2_algebra", worst <= 1e-10, f"max relative defect {worst:.2e}")


def _check_trace_hermiticity(seed: int) -> SelftestCheck:
    rng = np.random.default_rng(seed)
    worst_tr, worst_herm = 0.0, 0.0
    gen = build_generator(ModelParams(8, 0.4, theta=math.pi / 8))
    for _ in range(20):
        mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = mat + mat.conj().T
        out = gen.apply(rho)
        worst_tr = max(worst_tr, abs(np.trace(out)) / np.linalg.norm(rho))
        herm = np.linalg.norm(gen.apply(rho.conj().T).conj().T - out)
        worst_herm = max(worst_herm, herm / np.linalg.norm(rho))
    ok = worst_tr <= 1e-10 and worst_herm <= 1e-10
    return _check(
        "trace_and_hermiticity_preservation",
        ok,
        f"|Tr L(rho)| <= {worst_tr:.2e}, hermiticity defect <= {worst_herm:.2e}",
    )


def _check_steady(seed: int) -> SelftestCheck:
    steady = solve_steady_state(build_generator(ModelParams(20, 0.35, theta=math.pi / 8)))
    min_eig = np.linalg.eigvalsh((steady.rho + steady.rho.conj().T) / 2).min()
    ok = steady.residual <= 1e-9 and min_eig >= -1e-9
    return _check(
        "steady_residual_and_positivity",
        ok,
        f"residual {steady.residual:.2e}, min eigenvalue {min_eig:.2e}",
    )


def _check_dark_state(seed: int) -> SelftestCheck:
    steady = solve_steady_state(build_generator(ModelParams(12, 0.0)))
    off_diag = np.abs(steady.rho - np.diag(np.diag(steady.rho))).max()
    ground = abs(steady.rho[0, 0].real - 1.0)
    ok = off_diag <= 1e-9 and ground <= 1e-9
    return _check(
        "undriven_dark_state",
        ok,
        f"off-diagonal weight {off_diag:.2e}, ground deficit {ground:.2e}",
    )


def _check_solver_paths(seed: int) -> SelftestCheck:
    gen = build_generator(ModelParams(20, 0.3, theta=math.pi / 8))
    steady = solve_steady_state(gen)
    # reference: the dense SVD null vector of L
    null = np.linalg.svd(gen.matrix.toarray())[2][-1].conj().reshape(21, 21)
    null = (null + null.conj().T) / 2
    d_null = trace_distance(steady.rho, null / np.trace(null).real)
    return _check("solver_path_equivalence", d_null <= 1e-9, f"closed-form-null {d_null:.2e}")


def _check_uniqueness(seed: int) -> SelftestCheck:
    # the steady state is unique exactly when L has one zero eigenvalue
    # and every other mode decays; the dense spectrum shows both, and
    # its gap is the reference for the Arnoldi one
    gen = build_generator(ModelParams(20, 0.3, theta=math.pi / 8))
    vals = np.linalg.eigvals(gen.matrix.toarray())
    vals = vals[np.argsort(-vals.real)]
    zeros = int((np.abs(vals) <= 1e-9).sum())
    gap = float(-vals[1].real)
    detail = f"{zeros} zero mode(s), |zero mode| {abs(vals[0]):.2e}, dense gap {gap:.6g}"
    if zeros != 1 or gap <= DEGENERACY_TOL:
        return _check("steady_state_uniqueness", False, detail)
    deviation = abs(liouvillian_spectrum(gen, k=2, seed=seed).gap / gap - 1)
    return _check(
        "steady_state_uniqueness",
        deviation <= 1e-8,
        f"{detail}, Arnoldi gap deviation {deviation:.2e}",
    )


def _check_degeneracy_detection(seed: int) -> SelftestCheck:
    try:
        solve_steady_state(build_generator(ModelParams(6, 0.4, theta=math.pi / 4)))
    except DegenerateSteadyStateError as exc:
        return _check("degenerate_kernel_detection", True, f"theta = pi/4 kernel flagged: {exc}")
    return _check("degenerate_kernel_detection", False, "degenerate kernel went undetected")


def _check_sweep_determinism(seed: int) -> SelftestCheck:
    spec = SweepSpec(
        n_spins=10,
        theta=math.pi / 8,
        values=(0.1, 0.25, 0.4),
        tasks=("signals", "meanfield"),
        seed=seed,
    )
    serial = render_sweep(run_sweep(spec), spec, "csv", no_meta=True)
    parallel_spec = replace(spec, jobs=2)
    parallel = render_sweep(run_sweep(parallel_spec), parallel_spec, "csv", no_meta=True)
    return _check(
        "sweep_determinism_across_jobs",
        serial == parallel,
        "byte-identical CSV for --jobs 1 and --jobs 2"
        if serial == parallel
        else "CSV differs between worker counts",
    )


def run_selftest(seed: int = 0) -> list[SelftestCheck]:
    """Structural invariant suite; every check must pass."""
    checks = [
        _check_su2,
        _check_trace_hermiticity,
        _check_steady,
        _check_dark_state,
        _check_solver_paths,
        _check_uniqueness,
        _check_degeneracy_detection,
        _check_sweep_determinism,
    ]
    return [fn(seed) for fn in checks]
