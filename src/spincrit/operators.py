"""Collective spin operators on the symmetric (Dicke) sector.

All matrices act on the maximal-spin sector S = N/2 of N spin-1/2
particles, which the collective dynamics never leaves, so everything is
(N+1)-dimensional. Basis ordering is |S, m> with m ascending from -S to
+S; index 0 is the lowest-weight state m = -S.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import ValidationError

#: Largest N accepted by build_operators; (N+1)^2-dim superoperators get
#: expensive well before this, the guard only catches accidents.
MAX_SPINS = 2000

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """Physical knobs of the driven, collectively decaying spin ensemble.

    omega is the coherent drive amplitude in units of the collective
    jump rate, and theta the squeezing angle mixing lowering and raising
    parts in the jump operator cos(theta)*S- + sin(theta)*S+.

    The spin length s = N/2 and the critical coupling
    omega_c = cos(2*theta) are derived properties, always recomputed so
    they cannot drift out of sync with theta.
    """

    n_spins: int
    omega: float
    _: KW_ONLY
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_spins, (int, np.integer)) or self.n_spins < 1:
            raise ValidationError(f"n_spins must be a positive integer, got {self.n_spins!r}")
        if not math.isfinite(self.omega):
            raise ValidationError(f"omega must be finite, got {self.omega!r}")
        if not (0.0 <= self.theta < math.pi / 2):
            raise ValidationError(f"theta must lie in [0, pi/2), got {self.theta!r}")

    @property
    def s(self) -> float:
        return self.n_spins / 2

    @property
    def omega_c(self) -> float:
        return math.cos(2 * self.theta)

    @property
    def dimension(self) -> int:
        return self.n_spins + 1


@dataclass(frozen=True)
class SpinOperatorSet:
    """Dense collective spin matrices in the Dicke basis.

    s_plus is the conjugate transpose of s_minus, and
    s_theta = cos(theta)*s_minus + sin(theta)*s_plus is the jump
    operator (non-Hermitian except at theta = pi/4). Arrays are frozen
    after construction and safe to share between workers.
    """

    dimension: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    s_theta: np.ndarray


def build_operators(params: ModelParams) -> SpinOperatorSet:
    """Construct the collective operator set for the maximal-spin sector.

    Matrix elements follow <S,m+1|S+|S,m> = sqrt(S(S+1) - m(m+1)).
    """
    n = params.n_spins
    if n > MAX_SPINS:
        raise ValidationError(f"n_spins={n} exceeds the configured maximum {MAX_SPINS}")
    s = params.s
    m = np.arange(-s, s + 1)
    dim = n + 1

    s_plus = np.zeros((dim, dim), dtype=complex)
    amp = np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] + 1))
    s_plus[np.arange(1, dim), np.arange(dim - 1)] = amp
    s_minus = s_plus.conj().T.copy()

    sx = (s_plus + s_minus) / 2
    sy = (s_plus - s_minus) / 2j
    sz = np.diag(m).astype(complex)
    s_theta = math.cos(params.theta) * s_minus + math.sin(params.theta) * s_plus

    mats = (sx, sy, sz, s_plus, s_minus, s_theta)
    for mat in mats:
        mat.setflags(write=False)
    return SpinOperatorSet(dim, *mats)


def _require_hermitian(op: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "operator") -> None:
    dev = np.abs(op - op.conj().T).max()
    scale = max(1.0, np.abs(op).max())
    if dev > tol * scale:
        raise ValidationError(f"{name} is not Hermitian (deviation {dev:.2e})")


def _require_density(rho: np.ndarray) -> None:
    _require_hermitian(rho, TRACE_TOL, "density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.2e}")


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    """Tr(op @ rho) for a Hermitian op and a valid density matrix.

    The imaginary residue is a round-off artifact and is discarded.
    """
    _require_hermitian(op)
    _require_density(rho)
    val = np.trace(op @ rho)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ValidationError(f"expectation has non-negligible imaginary part {val.imag:.2e}")
    return float(val.real)


def variance(op: np.ndarray, rho: np.ndarray) -> float:
    """Tr(rho (op - <op>)^2), clamped at zero; centred, so near-pure states keep their digits."""
    _require_hermitian(op)
    _require_density(rho)
    m1 = np.einsum("ij,ji->", op, rho).real
    centred = op - m1 * np.eye(op.shape[0])
    var = np.einsum("ij,ji->", centred @ centred, rho).real
    if var < 0:
        if var < -1e-12 * max(1.0, m1 * m1):
            raise ValidationError(f"variance is negative beyond round-off: {var:.2e}")
        var = 0.0
    return float(var)


def spin_direction_operator(
    ops: SpinOperatorSet | ModelParams, direction: np.ndarray
) -> np.ndarray:
    """Spin projection n . (sx, sy, sz) along a unit 3-vector."""
    if isinstance(ops, ModelParams):
        ops = build_operators(ops)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (3,):
        raise ValidationError(f"direction must be a 3-vector, got shape {direction.shape}")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise ValidationError(f"direction must be unit length, |n| = {np.linalg.norm(direction)!r}")
    return direction[0] * ops.sx + direction[1] * ops.sy + direction[2] * ops.sz


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b) for Hermitian matrices."""
    diff = a - b
    vals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(vals).sum())
