"""Lindblad generator, steady-state solver, spectrum, and time evolution.

The master equation is

    d rho/dt = -i*omega*[Sx, rho]
               + (gamma/N) * (2 St rho St' - St'St rho - rho St'St)

with jump operator St = cos(theta)*S- + sin(theta)*S+ (St' its adjoint).

Density matrices are vectorized by row stacking (numpy C order), so
vec(A @ rho @ B) = kron(A, B.T) @ vec(rho) and a matrix is recovered
with .reshape(dim, dim).

L maps Hermitian matrices to Hermitian matrices, so the solvers work in
real coordinates on the same (dim, dim) grid: coordinate i*dim + j
holds Re X_ij for i <= j and Im X_ji for i > j. In them L is a real
matrix with the same spectrum, and its LU costs about half the complex
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import LinearOperator, splu

from .errors import (
    ConvergenceError,
    DegenerateSteadyStateError,
    SolverError,
    ValidationError,
)
from .operators import ModelParams, SpinOperatorSet, build_operators, _require_density

#: Shift-invert offset sigma and residual target of the steady solve, in
#: units of gamma.
SHIFT = 1e-8
TOL = 1e-10
MAX_ITER = 50
#: A second Liouvillian mode within DEGENERACY_TOL*gamma of zero makes
#: the steady state count as degenerate.
DEGENERACY_TOL = 1e-6
POSITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class LindbladGenerator:
    """Sparse superoperator for one parameter point.

    collapse_rate is the gamma/N prefactor multiplying the dissipator.
    """

    params: ModelParams
    ops: SpinOperatorSet
    matrix: sparse.csc_matrix
    collapse_rate: float

    @property
    def dimension(self) -> int:
        return self.ops.dimension

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action of the generator on a (dim, dim) matrix."""
        d = self.dimension
        return (self.matrix @ rho.reshape(d * d)).reshape(d, d)

    @cached_property
    def lu(self):
        """Sparse LU of R - SHIFT*gamma*1, factorized on first use.

        R is L in real coordinates. The steady-state power iteration,
        its degeneracy probe and the gap's Arnoldi run all apply the
        inverse through this one factor, on real vectors, and it lives
        as long as the generator. SuperLU cannot be pickled, and neither
        can a generator once this has run.
        """
        to_vec, to_real = _hermitian_coordinates(self.dimension)
        real = (to_real @ self.matrix @ to_vec).real
        eye = sparse.identity(self.dimension**2, format="csc")
        try:
            return splu((real - SHIFT * self.params.gamma * eye).tocsc())
        except RuntimeError as exc:
            raise ConvergenceError(f"sparse LU factorization failed: {exc}") from exc


@dataclass(frozen=True)
class SteadyState:
    """Steady density matrix with its spectral decomposition.

    populations are sorted descending; basis[:, n] is the eigenvector
    belonging to populations[n]. residual is the Frobenius norm of
    L(rho) for the returned rho.
    """

    rho: np.ndarray
    populations: np.ndarray
    basis: np.ndarray
    residual: float
    purity: float
    method: str
    iterations: int = 0

    @property
    def dimension(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "SteadyState":
        """Wrap an externally produced density matrix (no residual check)."""
        _require_density(rho)
        return _finalize(np.asarray(rho, dtype=complex), None, "external", 0)


@dataclass(frozen=True)
class SpectrumReport:
    """Leading Liouvillian eigenvalues, sorted by descending real part."""

    eigenvalues: np.ndarray
    gap: float
    method: str


@lru_cache(maxsize=1)
def _hermitian_coordinates(d: int) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
    """B from real coordinates to vec(X), and C from Hermitian vec(X) back.

    C @ B is the identity, and C @ L @ B is real for any L that maps
    Hermitian matrices to Hermitian matrices. Each has at most two
    entries per column.
    """
    i, j = np.divmod(np.arange(d * d), d)
    off = i != j
    k = np.arange(d * d)
    rows = np.concatenate([k, (j * d + i)[off]])
    cols = np.concatenate([k, k[off]])
    vals = np.concatenate([np.where(i <= j, 1, -1j), np.where(i < j, 1, 1j)[off]])
    to_vec = sparse.csc_matrix((vals, (rows, cols)), shape=(d * d, d * d))
    to_real = (sparse.diags(np.where(off, 0.5, 1.0)) @ to_vec.conj().T).tocsc()
    return to_vec, to_real


def _pack(rho: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian (d, d) matrix."""
    return (_hermitian_coordinates(rho.shape[0])[1] @ rho.reshape(-1)).real


def _unpack(x: np.ndarray, d: int) -> np.ndarray:
    """Hermitian (d, d) matrix of a real coordinate vector."""
    return (_hermitian_coordinates(d)[0] @ x).reshape(d, d)


def build_generator(params: ModelParams) -> LindbladGenerator:
    """Assemble the vectorized Lindblad superoperator, stored sparse."""
    ops = build_operators(params)
    d = ops.dimension
    rate = params.gamma / params.n_spins
    eye = sparse.identity(d, dtype=complex, format="csr")
    sx = sparse.csr_matrix(ops.sx)
    st = sparse.csr_matrix(ops.s_theta)
    std_st = sparse.csr_matrix(ops.s_theta.conj().T @ ops.s_theta)

    mat = -1j * params.omega * (sparse.kron(sx, eye) - sparse.kron(eye, sx.T)) + rate * (
        2 * sparse.kron(st, st.conj())
        - sparse.kron(std_st, eye)
        - sparse.kron(eye, std_st.T)
    )
    return LindbladGenerator(params, ops, mat.tocsc(), rate)


def _normalized_residual(matrix: sparse.csc_matrix, rho: np.ndarray) -> float:
    return float(np.linalg.norm(matrix @ rho.reshape(-1)))


def _finalize(
    rho_raw: np.ndarray,
    gen: LindbladGenerator | None,
    method: str,
    iterations: int,
) -> SteadyState:
    """Hermitize, trace-normalize, clamp the spectrum, and package."""
    rho = (rho_raw + rho_raw.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise SolverError("candidate steady state has vanishing trace")
    rho = rho / tr

    p, v = np.linalg.eigh(rho)
    if p.min() < -POSITIVITY_TOL:
        raise SolverError(f"steady state has negative eigenvalue {p.min():.2e}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    order = np.argsort(p)[::-1]
    p = p[order]
    v = v[:, order]
    rho = (v * p) @ v.conj().T
    rho = (rho + rho.conj().T) / 2

    residual = _normalized_residual(gen.matrix, rho) if gen is not None else 0.0
    return SteadyState(
        rho=rho,
        populations=p,
        basis=v,
        residual=residual,
        purity=float((p**2).sum()),
        method=method,
        iterations=iterations,
    )


def _degeneracy_probe(
    gen: LindbladGenerator,
    null_vec: np.ndarray,
    seed: int,
    steps: int = 6,
) -> None:
    """Detect a second near-zero mode via deflated shift-invert growth.

    The trace is the left null vector of any trace-preserving
    generator, so projecting out the zero mode's spectral component
    leaves the decaying modes. If the inverse iteration still amplifies
    by more than 1/(DEGENERACY_TOL*gamma), a second eigenvalue sits
    within DEGENERACY_TOL*gamma of zero. null_vec and the iterates are
    real coordinates, whose trace is the sum of the diagonal ones.
    """
    d = gen.dimension
    v = null_vec / np.linalg.norm(null_vec)
    overlap = v[:: d + 1].sum()
    if abs(overlap) < 1e-12:
        raise SolverError("null vector is traceless; cannot deflate zero mode")

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d * d)
    threshold = 1.0 / (DEGENERACY_TOL * gen.params.gamma)
    for _ in range(steps):
        x = x - v * (x[:: d + 1].sum() / overlap)
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            return
        x = gen.lu.solve(x / nrm)
        amp = np.linalg.norm(x)
        if not np.isfinite(amp):
            raise DegenerateSteadyStateError(
                "inverse iteration diverged on the deflated space"
            )
        if amp > threshold:
            lam = SHIFT * gen.params.gamma + 1.0 / amp
            raise DegenerateSteadyStateError(
                f"second Liouvillian mode within {lam:.2e} of zero; "
                "steady state is not unique at this tolerance"
            )


def _solve_power(
    gen: LindbladGenerator,
    seed: int,
    check_degeneracy: bool = True,
) -> SteadyState:
    mat = gen.matrix
    d = gen.dimension
    tol = TOL * gen.params.gamma
    lu = gen.lu

    x = _pack(np.eye(d) / d)
    rho = None
    for iteration in range(1, MAX_ITER + 1):
        y = lu.solve(x)
        nrm = np.linalg.norm(y)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ConvergenceError("inverse power iteration produced a non-finite vector")
        y = y / nrm
        cand = _unpack(y, d)
        tr = np.trace(cand).real
        if abs(tr) > 1e-12:
            cand = cand / tr
            res = _normalized_residual(mat, cand)
            if res < tol:
                rho = cand
                break
        x = y
    if rho is None:
        raise ConvergenceError(
            f"power iteration did not reach residual {tol:.1e} in {MAX_ITER} steps"
        )
    if check_degeneracy:
        _degeneracy_probe(gen, y, seed)
    return _finalize(rho, gen, "power", iteration)


def solve_steady_state(gen: LindbladGenerator, *, seed: int = 0) -> SteadyState:
    """Solve L(rho) = 0 for the unique steady state.

    Shift-invert power iteration on (L - SHIFT*gamma*1) until the
    residual |L(rho)| drops below TOL*gamma, then a degeneracy probe
    seeded by `seed`. A degenerate kernel (more than one steady state
    within tolerance) raises DegenerateSteadyStateError instead of
    silently averaging; no convergence within MAX_ITER steps raises
    ConvergenceError. The iteration factorizes through gen.lu, so
    liouvillian_spectrum on the same generator reuses that LU.
    """
    return _solve_power(gen, seed)


def liouvillian_spectrum(
    gen: LindbladGenerator,
    k: int = 6,
    *,
    seed: int = 0,
    steady: SteadyState | None = None,
) -> SpectrumReport:
    """Leading-k Liouvillian eigenvalues and the spectral gap.

    eigenvalues holds the zero mode, then the k-1 slowest decaying modes
    by descending real part; gap is -Re of the second (the asymptotic
    decay rate). Only problems too small for ARPACK to return k-1
    modes are diagonalized densely.

    Otherwise ARPACK runs on real coordinates x ->
    P (R - shift*1)^-1 P x with P x = x - rho_ss*tr(x), which removes
    the zero mode (left eigenvector the trace, right eigenvector
    rho_ss); each eigenvalue mu maps back to shift + 1/mu. The
    shift-invert LU is gen.lu, shared with solve_steady_state. R has
    the spectrum of L. rho_ss is `steady`, else a power iteration
    on that LU without the degeneracy probe, so a degenerate kernel
    reports a gap of ~0 instead of raising. `seed` draws ARPACK's start
    vector.
    """
    if k < 2:
        raise ValidationError("k must be at least 2 to define a gap")
    d = gen.dimension
    dim2 = d * d
    if k - 1 >= dim2 - 2:
        vals = scipy.linalg.eigvals(gen.matrix.toarray())
        vals = vals[np.argsort(-vals.real)][:k]
        return SpectrumReport(eigenvalues=vals, gap=float(-vals[1].real), method="dense")

    if steady is None:
        steady = _solve_power(gen, seed, check_degeneracy=False)
    rho = _pack(steady.rho)
    lu = gen.lu

    def deflate(x: np.ndarray) -> np.ndarray:
        return x - rho * x[:: d + 1].sum()

    op = LinearOperator(
        (dim2, dim2), matvec=lambda x: deflate(lu.solve(deflate(x))), dtype=float
    )
    rng = np.random.default_rng(seed)
    v0 = deflate(rng.standard_normal(dim2))
    try:
        mu = sparse.linalg.eigs(op, k=k - 1, which="LM", v0=v0, return_eigenvectors=False)
    except sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc
    modes = SHIFT * gen.params.gamma + 1.0 / mu
    vals = np.concatenate(([0j], modes[np.argsort(-modes.real)]))
    return SpectrumReport(eigenvalues=vals, gap=float(-vals[1].real), method="arnoldi")


@dataclass(frozen=True)
class Trajectory:
    """Density-matrix trajectory from adaptive integration."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def evolve(
    gen: LindbladGenerator,
    rho_in: np.ndarray,
    t_final: float,
    *,
    t_eval: np.ndarray | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-12,
    max_step: float = np.inf,
) -> Trajectory:
    """Integrate d(vec rho)/dt = L vec(rho) with adaptive RK45.

    Aborts if the trace drifts from 1 by more than 1e-6; returned
    states are hermitized and trace-normalized.
    """
    _require_density(rho_in)
    if t_final < 0:
        raise ValidationError("t_final must be nonnegative")
    if t_final == 0:
        return Trajectory(np.array([0.0]), np.asarray(rho_in, dtype=complex)[None, :, :])

    d = gen.dimension
    mat = gen.matrix

    def rhs(_t: float, v: np.ndarray) -> np.ndarray:
        return mat @ v

    sol = solve_ivp(
        rhs,
        (0.0, float(t_final)),
        np.asarray(rho_in, dtype=complex).reshape(-1),
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        max_step=max_step,
    )
    if not sol.success:
        raise SolverError(f"time integration failed: {sol.message}")

    states = sol.y.T.reshape(-1, d, d)
    traces = np.einsum("tii->t", states).real
    drift = np.abs(traces - 1.0).max()
    if drift > 1e-6:
        raise SolverError(f"trace drifted by {drift:.2e} (> 1e-6) during evolution")
    states = (states + states.conj().transpose(0, 2, 1)) / 2
    states = states / traces[:, None, None]
    return Trajectory(sol.t, states)
