"""Quantum Fisher information, SLD, error propagation, and witnesses.

Two estimation schemes are covered: the parameter encoded in the steady
state itself (spectral QFI of d(rho_ss)/d(lambda)), and a unitary phase
imprinted on the steady state by a Hermitian generator
(population-difference spectral formula, independent of the phase
value).

spectral_qfi and signal_bound take the state and its derivative. The
reports pass the exact derivative, LindbladGenerator.state_derivative;
qfi_steady and error_propagation pass a central difference over any
steady-state solver, such as steady_solver, and serve as its oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import SupportLeakWarning, ValidationError
from .liouvillian import SteadyState, build_generator, solve_steady_state
from .operators import (
    ModelParams,
    _require_hermitian,
    build_operators,
    expectation,
    variance,
)

StateSolver = Callable[[float], SteadyState]

DEFAULT_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class SpinSqueezing:
    """Wineland-criterion result: value < 1 certifies squeezing."""

    value: float
    mean_direction: tuple[float, float, float]
    optimal_direction: tuple[float, float, float]
    mean_length: float


def default_fd_step(params: ModelParams, lambda_name: str) -> float:
    """Finite-difference step for d(rho_ss)/d(lambda).

    1e-4 of the natural scale, capped at 5% of the distance to the
    critical coupling when estimating omega in the ferromagnetic phase
    |omega| < omega_c: the steady state, a function of |omega|, is nearly
    nonanalytic at |omega| = omega_c and the stencil must not straddle it.
    """
    lam = params.omega if lambda_name == "omega" else params.theta
    h = 1e-4 * max(abs(lam), abs(params.omega_c), 1e-2)
    if lambda_name == "omega" and abs(params.omega) < params.omega_c:
        h = min(h, 0.05 * (params.omega_c - abs(params.omega)))
    return h


def steady_solver(params: ModelParams, lambda_name: str = "omega") -> StateSolver:
    """Map lambda -> steady state, varying omega or theta of `params`."""
    if lambda_name not in ("omega", "theta"):
        raise ValidationError(f"lambda_name must be 'omega' or 'theta', got {lambda_name!r}")

    def solve_at(value: float) -> SteadyState:
        p = replace(params, **{lambda_name: float(value)})
        return solve_steady_state(build_generator(p))

    return solve_at


def steady_derivative(solver: StateSolver, lam: float, step: float) -> np.ndarray:
    """Central-difference d(rho_ss)/d(lambda)."""
    if step <= 0:
        raise ValidationError("derivative step must be positive")
    return (solver(lam + step).rho - solver(lam - step).rho) / (2.0 * step)


def signal_bound(op: np.ndarray, rho: np.ndarray, drho: np.ndarray) -> float:
    """Inverse signal-to-noise bound sqrt(Var op)/|d<op>/d lambda|.

    d<op>/d lambda = tr(op drho). Returns inf when that slope is below
    1e-12 (the observable carries no information about lambda).
    """
    _require_hermitian(op)
    slope = float(np.einsum("ij,ji->", op, drho).real)
    if abs(slope) < 1e-12:
        return math.inf
    return math.sqrt(variance(op, rho)) / abs(slope)


def error_propagation(
    op: np.ndarray,
    solver: StateSolver,
    lam: float,
    step: float,
) -> float:
    """signal_bound at solver(lam), with a central-difference derivative."""
    return signal_bound(op, solver(lam).rho, steady_derivative(solver, lam, step))


def _in_eigenbasis(
    state: SteadyState, drho: np.ndarray, eig_floor: float, leak_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """d rho in the eigenbasis of `state`, p_n + p_m, the pairs kept, and
    the weight outside them if above leak_tol * max(1, |d rho|), else 0."""
    p = state.populations
    dmat = state.basis.conj().T @ drho @ state.basis
    den = p[:, None] + p[None, :]
    kept = den > eig_floor
    leak = np.linalg.norm(dmat[~kept])
    return dmat, den, kept, leak if leak > leak_tol * max(1.0, np.linalg.norm(dmat)) else 0.0


def spectral_qfi(
    state: SteadyState, drho: np.ndarray, eig_floor: float = DEFAULT_EIG_FLOOR
) -> float:
    """Scheme-(i) QFI: 2 sum |<n|d rho|m>|^2 / (p_n + p_m) over pairs above eig_floor."""
    # leak threshold sits above the floor-adjacent noise that a
    # finite-difference derivative always carries (eigenvector rotations
    # inside the near-zero population cluster, amplified by 1/step)
    dmat, den, kept, leak = _in_eigenbasis(state, drho, eig_floor, 1e-6)
    if leak:
        warnings.warn(
            f"state derivative has weight {leak:.2e} outside the kept "
            f"eigenvalue support (floor {eig_floor:.1e})",
            SupportLeakWarning,
            stacklevel=3,
        )
    return float(2.0 * (np.abs(dmat[kept]) ** 2 / den[kept]).sum())


def qfi_steady(
    solver: StateSolver,
    lam: float,
    step: float,
    eig_floor: float = DEFAULT_EIG_FLOOR,
) -> float:
    """spectral_qfi at solver(lam), with a central-difference derivative."""
    if eig_floor < 0:
        raise ValidationError("eig_floor must be nonnegative")
    return spectral_qfi(solver(lam), steady_derivative(solver, lam, step), eig_floor)


def qfi_perturbed(
    steady: SteadyState,
    generator: np.ndarray,
    eig_floor: float = DEFAULT_EIG_FLOOR,
) -> float:
    """Scheme-(ii) QFI for the phase family e^{-i lambda G} rho e^{+i lambda G}.

    2 sum (p_n - p_m)^2/(p_n + p_m) |<n|G|m>|^2; independent of the
    phase value itself.
    """
    _require_hermitian(generator, name="generator")
    p = steady.populations
    gmat = steady.basis.conj().T @ generator @ steady.basis
    num = (p[:, None] - p[None, :]) ** 2
    den = p[:, None] + p[None, :]
    kept = den > eig_floor
    return float(2.0 * (num[kept] / den[kept] * np.abs(gmat[kept]) ** 2).sum())


def sld(
    steady: SteadyState,
    drho: np.ndarray,
    eig_floor: float = DEFAULT_EIG_FLOOR,
) -> np.ndarray:
    """Symmetric logarithmic derivative on the kept eigenvalue support.

    L_nm = 2 <n|d rho|m> / (p_n + p_m); Tr(rho L^2) reproduces the
    steady-state QFI for the same derivative and floor.
    """
    dmat, den, kept, leak = _in_eigenbasis(steady, drho, eig_floor, 1e-8)
    if leak:
        warnings.warn(
            f"derivative weight {leak:.2e} outside kept support; SLD is "
            "only defined on the kept block",
            SupportLeakWarning,
            stacklevel=2,
        )
    lmat = np.zeros_like(dmat)
    lmat[kept] = 2.0 * dmat[kept] / den[kept]
    out = steady.basis @ lmat @ steady.basis.conj().T
    return (out + out.conj().T) / 2


def chi_squared(qfi: float, n_spins: int) -> float:
    """Entanglement witness N/F_Q; below 1 means sub-shot-noise."""
    if qfi <= 0:
        raise ValidationError("chi_squared needs qfi > 0")
    return n_spins / qfi


def _perpendicular_frame(n_mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.array([1.0, 0.0, 0.0])
    if abs(n_mean @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - (ref @ n_mean) * n_mean
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n_mean, e1)
    return e1, e2


def xi_squared(steady: SteadyState, params: ModelParams) -> SpinSqueezing:
    """Spin-squeezing parameter N * min Var(S_perp) / |<S>|^2.

    The minimum over directions perpendicular to the mean spin is found
    exactly by diagonalizing the 2x2 covariance block in the
    perpendicular plane. The optimal direction is a line; of its two
    signs, the one returned has its larger component along e1 or e2 of
    that plane positive.
    """
    ops = build_operators(params)
    if ops.dimension != steady.dimension:
        raise ValidationError("state dimension does not match params")
    mean = np.array(
        [expectation(ops.sx, steady.rho), expectation(ops.sy, steady.rho), expectation(ops.sz, steady.rho)]
    )
    length = np.linalg.norm(mean)
    if length < 1e-12:
        raise ValidationError("mean spin vanishes; squeezing direction is undefined")
    n_mean = mean / length

    e1, e2 = _perpendicular_frame(n_mean)
    s1 = e1[0] * ops.sx + e1[1] * ops.sy + e1[2] * ops.sz
    s2 = e2[0] * ops.sx + e2[1] * ops.sy + e2[2] * ops.sz
    m1 = expectation(s1, steady.rho)
    m2 = expectation(s2, steady.rho)
    c11 = expectation(s1 @ s1, steady.rho) - m1 * m1
    c22 = expectation(s2 @ s2, steady.rho) - m2 * m2
    sym = (s1 @ s2 + s2 @ s1) / 2
    c12 = expectation(sym, steady.rho) - m1 * m2

    cov = np.array([[c11, c12], [c12, c22]])
    vals, vecs = np.linalg.eigh(cov)
    var_min = max(vals[0], 0.0)
    # eigh leaves the sign to round-off; fix it by the larger component
    vec = vecs[:, 0] if vecs[np.argmax(np.abs(vecs[:, 0])), 0] > 0 else -vecs[:, 0]
    direction = vec[0] * e1 + vec[1] * e2
    direction = direction / np.linalg.norm(direction)
    return SpinSqueezing(
        value=float(params.n_spins * var_min / length**2),
        mean_direction=tuple(n_mean),
        optimal_direction=tuple(direction),
        mean_length=float(length),
    )
