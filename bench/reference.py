"""Reference computations the benchmark checks the program against.

Written apart from the program: its own Dicke matrices, a column-stacked
superoperator (the program stacks rows), the steady state from one sparse
direct solve with the trace condition replacing one equation (the program
runs shift-invert power iteration), and QFIs from the Bures distance
between reference states (the program uses spectral formulas).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def spin_matrices(n_spins: int) -> dict[str, np.ndarray]:
    """Dense S_x, S_y, S_z, S_- of spin S = N/2 in the basis m = -S..S."""
    s = n_spins / 2
    m = np.arange(n_spins + 1) - s
    # <m-1|S_-|m> = sqrt((S + m)(S - m + 1))
    lower = np.diag(np.sqrt((s + m[1:]) * (s - m[1:] + 1)), k=1).astype(complex)
    raise_ = lower.conj().T
    return {
        "sx": (raise_ + lower) / 2,
        "sy": (raise_ - lower) / 2j,
        "sz": np.diag(m).astype(complex),
        "sm": lower,
    }


def generator(n_spins: int, omega: float, theta: float, gamma: float = 1.0) -> sp.csc_matrix:
    """Lindblad generator acting on column-stacked vec(rho).

    Column stacking gives vec(A rho B) = kron(B.T, A) vec(rho).
    """
    ops = spin_matrices(n_spins)
    d = n_spins + 1
    eye = sp.identity(d, dtype=complex, format="csr")
    sx = sp.csr_matrix(ops["sx"])
    jump = sp.csr_matrix(math.cos(theta) * ops["sm"] + math.sin(theta) * ops["sm"].conj().T)
    jj = (jump.conj().T @ jump).tocsr()
    rate = gamma / n_spins
    hamiltonian = -1j * omega * (sp.kron(eye, sx) - sp.kron(sx.T, eye))
    dissipator = rate * (
        2 * sp.kron(jump.conj(), jump) - sp.kron(eye, jj) - sp.kron(jj.T, eye)
    )
    return (hamiltonian + dissipator).tocsc()


def steady_state(n_spins: int, omega: float, theta: float, gamma: float = 1.0) -> np.ndarray:
    """rho with L(rho) = 0 and Tr rho = 1, from one sparse direct solve.

    The equation for rho_00 is replaced by the trace condition: the rows
    for the diagonal entries sum to zero for any trace-preserving
    generator, so that row is redundant and the system is regular when
    the steady state is unique.
    """
    d = n_spins + 1
    mat = generator(n_spins, omega, theta, gamma).tolil()
    mat[0, :] = 0
    diag = np.arange(d) * (d + 1)
    mat[0, diag] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    vec = spla.spsolve(mat.tocsc(), rhs)
    rho = vec.reshape(d, d, order="F")
    return (rho + rho.conj().T) / 2


def dense_null_state(n_spins: int, omega: float, theta: float, gamma: float = 1.0) -> np.ndarray:
    """Steady state from the dense SVD null vector; small N only."""
    d = n_spins + 1
    _, _, vh = np.linalg.svd(generator(n_spins, omega, theta, gamma).toarray())
    rho = vh[-1].conj().reshape(d, d, order="F")
    rho = rho / np.trace(rho)
    return (rho + rho.conj().T) / 2


def sqrt_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def root_fidelity(sqrt_a: np.ndarray, sqrt_b: np.ndarray) -> float:
    """Uhlmann root fidelity Tr|sqrt(a) sqrt(b)| from the matrix square roots."""
    return float(np.linalg.svd(sqrt_a @ sqrt_b, compute_uv=False).sum())


def bures_qfi(rho_minus: np.ndarray, rho_plus: np.ndarray, step: float) -> float:
    """QFI from states at lambda -/+ step: 8 (1 - sqrt F) / (2 step)^2."""
    return 8.0 * (1.0 - root_fidelity(sqrt_psd(rho_minus), sqrt_psd(rho_plus))) / (2 * step) ** 2


def phase_qfi(rho: np.ndarray, gen: np.ndarray, phase: float = 1e-4) -> float:
    """QFI of rho under exp(-i phase G), from the Bures distance.

    sqrt(U rho U') = U sqrt(rho) U', so the root fidelity of rho and the
    rotated state is Tr|sqrt(rho) U sqrt(rho)|. Richardson extrapolation
    over phase and 2*phase removes the O(phase^2) term.
    """
    vals, vecs = np.linalg.eigh(gen)
    root = sqrt_psd(rho)

    def at(phi: float) -> float:
        unitary = (vecs * np.exp(-1j * phi * vals)) @ vecs.conj().T
        return 8.0 * (1.0 - root_fidelity(root, unitary @ root)) / phi**2

    return (4.0 * at(phase) - at(2 * phase)) / 3.0


def expect(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", op, rho).real)


def var(op: np.ndarray, rho: np.ndarray) -> float:
    return expect(op @ op, rho) - expect(op, rho) ** 2


def squeezing(ops: dict[str, np.ndarray], rho: np.ndarray, n_spins: int) -> tuple[float, np.ndarray]:
    """Wineland xi^2 = N min Var(S_perp) / |<S>|^2 and the minimizing direction."""
    comps = [ops["sx"], ops["sy"], ops["sz"]]
    mean = np.array([expect(c, rho) for c in comps])
    cov = np.array(
        [[expect((a @ b + b @ a) / 2, rho) for b in comps] for a in comps]
    ) - np.outer(mean, mean)
    unit = mean / np.linalg.norm(mean)
    # orthonormal basis of the plane perpendicular to the mean spin
    plane = np.linalg.svd(np.eye(3) - np.outer(unit, unit))[0][:, :2]
    vals, vecs = np.linalg.eigh(plane.T @ cov @ plane)
    return n_spins * vals[0] / (mean @ mean), plane @ vecs[:, 0]


def spectral_gap(n_spins: int, omega: float, theta: float, gamma: float = 1.0, k: int = 12) -> float:
    """-Re of the slowest decaying nonzero Liouvillian mode.

    Shift-invert Arnoldi about zero for the k modes nearest it, with a
    fixed start vector so that the value repeats exactly.
    """
    mat = generator(n_spins, omega, theta, gamma)
    start = np.ones(mat.shape[0], dtype=complex)
    vals = spla.eigs(mat, k=k, sigma=1e-4 * gamma, v0=start, return_eigenvectors=False)
    return float(-np.sort(vals.real)[::-1][1])


def default_step(omega: float, omega_c: float, gamma: float = 1.0) -> float:
    """The finite-difference step the program documents for d/d omega.

    1e-4 of the natural scale, capped at 5% of the distance to omega_c
    inside the ferromagnetic phase. The reference uses the same stencil
    so that both sides estimate the same difference quotient.
    """
    h = 1e-4 * max(abs(omega), abs(omega_c), 1e-2 * gamma)
    if 0 <= omega < omega_c:
        h = min(h, 0.05 * (omega_c - omega))
    return h


def magnetization(omega: float, omega_c: float) -> float:
    """Mean-field order parameter M = sqrt(1 - (omega/omega_c)^2), 0 when thermal."""
    return math.sqrt(1.0 - (omega / omega_c) ** 2) if omega < omega_c else 0.0


def closed_form_chi2(omega: float, theta: float, gamma: float = 1.0) -> float:
    """Thermodynamic-limit chi^2 of the optimal generator: omega_c M / (sqrt(G-) + sqrt(G+))^2."""
    omega_c = gamma * math.cos(2 * theta)
    rates = (math.sqrt(gamma) * (math.cos(theta) + math.sin(theta))) ** 2
    return omega_c * magnetization(omega, omega_c) / rates


def self_check() -> list[str]:
    """Check the reference against a dense null-space solve and the dark state."""
    problems = []
    for n, omega, theta in ((6, 0.4, 0.3927), (10, 0.9, 0.2), (12, 0.3, 0.0)):
        gap = np.abs(steady_state(n, omega, theta) - dense_null_state(n, omega, theta)).max()
        if gap > 1e-10:
            problems.append(f"reference: sparse and dense steady states differ by {gap:.1e} at N={n}")
    dark = np.zeros((9, 9))
    dark[0, 0] = 1.0
    gap = np.abs(steady_state(8, 0.0, 0.0) - dark).max()
    if gap > 1e-12:
        problems.append(f"reference: undriven steady state is {gap:.1e} from |S,-S>")
    return problems
