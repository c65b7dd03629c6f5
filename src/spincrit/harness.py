"""Parameter sweeps, scaling fits, structured output, and the selftest.

Sweep rows are independent parameter points; they can fan out to a
process pool and are always emitted in grid order, so the output is
deterministic for a fixed spec regardless of the worker count.
"""

from __future__ import annotations

import io
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import meanfield
from .errors import (
    DegenerateSteadyStateError,
    SolverError,
    SpincritError,
    ValidationError,
)
from .liouvillian import (
    SteadyState,
    build_generator,
    evolve,
    liouvillian_spectrum,
    solve_steady_state,
)
from .metrology import (
    chi_squared,
    default_fd_step,
    error_propagation,
    qfi_perturbed,
    qfi_steady,
    steady_solver,
    xi_squared,
)
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
    gamma: float = 1.0
    theta: float = 0.0
    axis: str = "omega"
    values: tuple[float, ...] = ()
    tasks: tuple[str, ...] = ("signals",)
    lambda_name: str = "omega"
    generator: str = "optimal"
    step: float | None = None
    eig_floor: float = 1e-12
    jobs: int = 1
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format {self.fmt!r}")
        if self.axis not in ("omega", "theta", "n_spins"):
            raise ValidationError(f"unknown sweep axis {self.axis!r}")
        if not self.tasks:
            raise ValidationError("task list must not be empty")
        unknown = [t for t in self.tasks if t not in KNOWN_TASKS]
        if unknown:
            raise ValidationError(f"unknown tasks {unknown}; known: {list(KNOWN_TASKS)}")
        if len(self.values) == 0:
            raise ValidationError("sweep needs at least one grid value")
        diffs = np.diff(self.values)
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValidationError("swept values must be strictly monotone")
        if self.jobs < 1:
            raise ValidationError("jobs must be >= 1")
        if self.lambda_name not in ("omega", "theta"):
            raise ValidationError("lambda must be 'omega' or 'theta'")
        if self.step is not None and self.step <= 0:
            raise ValidationError("derivative step must be positive")
        if self.eig_floor < 0:
            raise ValidationError("eig_floor must be nonnegative")
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


def _meanfield_columns(params: ModelParams) -> dict:
    # rho(-omega) = conj rho(omega), so a row at omega < 0 mirrors the
    # row at |omega| with <Sy> negated
    sign = -1.0 if params.omega < 0 else 1.0
    params = replace(params, omega=abs(params.omega))
    m = meanfield.magnetization(params)
    if m == 0.0:
        # thermal phase: the order parameter is flat at zero and the
        # expansion gives no variances or bounds
        return {"mf_m": m, "mf_sz": 0.0}
    coeffs = meanfield.hp_coefficients(params)
    sig = meanfield.predict_signals(coeffs, params.n_spins)
    qfi, chi2 = meanfield.analytic_qfi_chi(params, params.n_spins)
    return {
        "mf_m": m,
        "mf_sy": sign * sig.sy,
        "mf_sz": sig.sz,
        "mf_var_sy": sig.var_sy,
        "mf_var_sz": sig.var_sz,
        "mf_bound_omega": meanfield.bound_omega(params, params.n_spins),
        "mf_r": meanfield.gaussian_steady_state(coeffs).r,
        "mf_qfi": qfi,
        "mf_chi2": chi2,
    }


def _coordinates(n_spins: int, omega: float, gamma: float, theta: float) -> dict:
    return {"n": n_spins, "omega_over_gamma": omega / gamma, "theta": theta}


def compute_report(params: ModelParams, spec: SweepSpec) -> dict:
    """Evaluate all requested tasks at one parameter point.

    Returns one row: a dict keyed by CSV column name. A column whose
    task did not run, or produced no value, is absent.
    """
    row = _coordinates(params.n_spins, params.omega, params.gamma, params.theta)
    tasks = set(spec.tasks)
    if "chi2" in tasks and not tasks & {"qfi_steady", "qfi_perturbed"}:
        tasks.add("qfi_perturbed")

    if "meanfield" in tasks:
        row.update(_meanfield_columns(params))

    if not tasks & _SOLVE_TASKS:
        if "gap" in tasks:
            row["gap"] = liouvillian_spectrum(build_generator(params), k=2, seed=spec.seed).gap
        return row

    gen = build_generator(params)
    steady = solve_steady_state(gen, seed=spec.seed)
    if "gap" in tasks:
        row["gap"] = liouvillian_spectrum(gen, k=2, seed=spec.seed, steady=steady).gap
    ops = gen.ops
    # free the centre LU (33 MB at N = 100) before the stencil points factorize
    del gen
    s_len = params.s
    syn = np.asarray(ops.sy) / s_len
    szn = np.asarray(ops.sz) / s_len

    if "signals" in tasks:
        row["sx"] = expectation(np.asarray(ops.sx) / s_len, steady.rho)
        row["sy"] = expectation(syn, steady.rho)
        row["sz"] = expectation(szn, steady.rho)
        row["var_sy"] = variance(syn, steady.rho)
        row["var_sz"] = variance(szn, steady.rho)

    lam = params.omega if spec.lambda_name == "omega" else params.theta
    step = spec.step if spec.step is not None else default_fd_step(params, spec.lambda_name)

    if "bounds" in tasks or "qfi_steady" in tasks:
        solver = steady_solver(params, spec.lambda_name, seed=spec.seed)
        cached = {lam: steady}

        def solve_at(value: float) -> SteadyState:
            if value not in cached:
                cached[value] = solver(value)
            return cached[value]

        if "bounds" in tasks:
            row["eprop_sy"] = error_propagation(syn, solve_at, lam, step)
            row["eprop_sz"] = error_propagation(szn, solve_at, lam, step)
        if "qfi_steady" in tasks:
            row["qfi_steady"] = qfi_steady(solve_at, lam, step, eig_floor=spec.eig_floor)
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


def _point_params(spec: SweepSpec, value: float) -> ModelParams:
    if spec.axis == "n_spins":
        return ModelParams(int(value), spec.omega, spec.gamma, spec.theta)
    kwargs = {"omega": spec.omega, "gamma": spec.gamma, "theta": spec.theta}
    kwargs[spec.axis] = float(value)
    return ModelParams(spec.n_spins, **kwargs)


def _run_point(args: tuple[SweepSpec, float]) -> dict:
    spec, value = args
    try:
        params = _point_params(spec, value)
        return compute_report(params, spec)
    except (SpincritError, ValueError) as exc:
        point = {
            "n_spins": spec.n_spins,
            "omega": spec.omega,
            "gamma": spec.gamma,
            "theta": spec.theta,
        }
        point[spec.axis] = int(value) if spec.axis == "n_spins" else float(value)
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
    if not unset:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield pool
        return
    limit = str(max(1, (os.cpu_count() or 1) // jobs))
    os.environ.update(dict.fromkeys(unset, limit))
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for name in unset:
            os.environ.pop(name, None)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid value, in grid order; failures stay per-row."""
    spec.validate()
    jobs = [(spec, value) for value in spec.values]
    if spec.jobs > 1 and len(jobs) > 1:
        with _worker_pool(spec.jobs) as pool:
            rows = list(pool.map(_run_point, jobs))
    else:
        rows = [_run_point(job) for job in jobs]
    if rows and all("error" in row for row in rows):
        raise SolverError(
            f"all {len(rows)} sweep rows failed; first error: {rows[0]['error']}"
        )
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


def write_csv(rows: list[dict], spec: SweepSpec, stream, no_meta: bool = False) -> None:
    if not no_meta:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        stream.write(
            f"# spincrit sweep generated={stamp} axis={spec.axis} "
            f"tasks={','.join(spec.tasks)} seed={spec.seed}\n"
        )
    columns = csv_columns(spec.tasks)
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")


def _json_value(value):
    # JSON has no infinities or NaN; they go out as the CSV spells them
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def write_json(rows: list[dict], spec: SweepSpec, stream) -> None:
    columns = csv_columns(spec.tasks)
    records = [{col: _json_value(row.get(col)) for col in columns} for row in rows]
    json.dump(records, stream, indent=2)
    stream.write("\n")


def render_sweep(rows: list[dict], spec: SweepSpec, fmt: str, no_meta: bool = False) -> str:
    buf = io.StringIO()
    if fmt == "csv":
        write_csv(rows, spec, buf, no_meta=no_meta)
    elif fmt == "json":
        write_json(rows, spec, buf)
    else:
        raise ValidationError(f"unknown output format {fmt!r}")
    return buf.getvalue()


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
        params = ModelParams(n, 0.0, 1.0, 0.3)
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
    gen = build_generator(ModelParams(8, 0.4, 1.0, math.pi / 8))
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
    params = ModelParams(20, 0.35, 1.0, math.pi / 8)
    steady = solve_steady_state(build_generator(params))
    min_eig = np.linalg.eigvalsh((steady.rho + steady.rho.conj().T) / 2).min()
    ok = steady.residual <= 1e-9 * params.gamma and min_eig >= -1e-9
    return _check(
        "steady_residual_and_positivity",
        ok,
        f"residual {steady.residual:.2e}, min eigenvalue {min_eig:.2e}",
    )


def _check_dark_state(seed: int) -> SelftestCheck:
    params = ModelParams(12, 0.0, 1.0, 0.0)
    steady = solve_steady_state(build_generator(params))
    off_diag = np.abs(steady.rho - np.diag(np.diag(steady.rho))).max()
    ground = abs(steady.rho[0, 0].real - 1.0)
    ok = off_diag <= 1e-9 and ground <= 1e-9
    return _check(
        "undriven_dark_state",
        ok,
        f"off-diagonal weight {off_diag:.2e}, ground deficit {ground:.2e}",
    )


def _check_solver_paths(seed: int) -> SelftestCheck:
    params = ModelParams(20, 0.3, 1.0, math.pi / 8)
    gen = build_generator(params)
    steady = solve_steady_state(gen, seed=seed)
    # references: the dense SVD null vector of L, and relaxation from the
    # maximally mixed state over ~25 decay times of the gap
    null = np.linalg.svd(gen.matrix.toarray())[2][-1].conj().reshape(21, 21)
    null = (null + null.conj().T) / 2
    relaxed = evolve(gen, np.eye(21, dtype=complex) / 21, 50.0, rtol=1e-11, atol=1e-15)
    d_null = trace_distance(steady.rho, null / np.trace(null).real)
    d_evolve = trace_distance(steady.rho, relaxed.final)
    return _check(
        "solver_path_equivalence",
        d_null <= 1e-9 and d_evolve <= 1e-7,
        f"power-null {d_null:.2e}, power-evolve {d_evolve:.2e}",
    )


def _check_uniqueness(seed: int) -> SelftestCheck:
    rng = np.random.default_rng(seed)
    params = ModelParams(20, 0.3, 1.0, math.pi / 8)
    gen = build_generator(params)
    finals = []
    for _ in range(5):
        mat = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real
        traj = evolve(gen, rho, 200.0, rtol=1e-9, atol=1e-13)
        finals.append(traj.final)
    worst = max(
        trace_distance(a, finals[0]) for a in finals[1:]
    )
    return _check(
        "steady_state_uniqueness",
        worst <= 1e-6,
        f"max trace distance between relaxed states {worst:.2e}",
    )


def _check_degeneracy_detection(seed: int) -> SelftestCheck:
    params = ModelParams(6, 0.4, 1.0, math.pi / 4)
    try:
        solve_steady_state(build_generator(params))
    except DegenerateSteadyStateError:
        return _check("degenerate_kernel_detection", True, "theta = pi/4 kernel flagged")
    return _check(
        "degenerate_kernel_detection", False, "degenerate kernel went undetected"
    )


def _check_sweep_determinism(seed: int) -> SelftestCheck:
    spec = SweepSpec(
        n_spins=10,
        gamma=1.0,
        theta=math.pi / 8,
        axis="omega",
        values=(0.1, 0.25, 0.4),
        tasks=("signals", "meanfield"),
        jobs=1,
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
