"""Lindblad generator, steady-state solver, and spectrum.

The master equation is

    d rho/dt = -i*omega*[Sx, rho]
               + (1/N) * (2 St rho St' - St'St rho - rho St'St)

with jump operator St = cos(theta)*S- + sin(theta)*S+ (St' its adjoint)
and time in units of 1/(collective jump rate), so rates are pure numbers.

Density matrices are vectorized by row stacking (numpy C order), so
vec(A @ rho @ B) = kron(A, B.T) @ vec(rho) and a matrix is recovered
with .reshape(dim, dim).

The steady state has a closed form. The drive is linear in the jump
operator, omega*Sx = g*(St + St') with g = omega/(2*(cos(theta) +
sin(theta))), and the dissipator is kappa*D[St] with kappa = 2/N. Let
X = (1 - St/beta)^-1 with beta = -2i*g/kappa, so that
St X = beta*(X - 1). Substituting this into L(X X') makes it vanish
term by term, so rho_ss is X X' up to normalization, which is
(A'A)^-1 with A = beta - St (Puri and Lawande, Phys. Lett. A 72, 200
(1979); Roberts, Lingenfelter and Clerk, PRX Quantum 2, 020336 (2021)).

The state is unique for theta != pi/4 and omega != 0, by Frigerio's
theorem (Commun. Math. Phys. 63, 269 (1978)): a full-rank stationary
state is the only one when only multiples of 1 commute with Sx, St and
St'. A diagonal similarity maps St to 2*sqrt(cos*sin)*Sx, whose spectrum
is real, while beta is imaginary, so A and rho_ss have full rank; and
for cos(theta) != sin(theta), St and St' span S+ and S-, which act
irreducibly. (At omega = 0 a singular A leaves a pure dark state, whose
uniqueness the tests check on the dense spectrum.)

At theta = pi/4 every function of Sx is steady, so the gap closes near
it. With eps = cos(theta) - sin(theta) and a = cos(theta) + sin(theta),
St = a*Sx - i*eps*Sy and L = L0 + eps*L1 + eps^2*L2, where
L0 = -i*omega*[Sx, .] + (2a^2/N) D[Sx] is diagonal on the Sx eigenbasis,
L1 rho = (2/N)(ia(Sx rho Sy - Sy rho Sx) - (a/2){Sz, rho}) and
L2 = (2/N) D[Sy]. To order eps^2 the Sx populations then follow
W = P L2 P - P L1 L0^-1 L1 P, a birth-death chain whose rate m -> m+-1 is
(S(S+1) - m(m+-1)) (1 + (4m^2 - 1)/(1 + (N*omega/a^2)^2)) / (2N), and the
gap is eps^2*lambda_1(W) to leading order.

The gap's LU works in real coordinates on the (dim, dim) grid, where L
is a real matrix with the same spectrum: coordinate i*dim + j holds
Re X_ij for i <= j and Im X_ji for i > j. L = omega*L_H + L_D is cached
in pieces for the last (N, theta), so an omega sweep assembles each
point by one sparse sum; the real form's pieces are built with the first
LU. Only the code that builds, factorizes or diagonalizes L imports
scipy, so importing this module loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, DegenerateSteadyStateError, SolverError, ValidationError
from .operators import ModelParams, SpinOperatorSet, build_operators, _require_density

#: Shift-invert offset sigma of the LU, and the largest residual
#: |L(rho)| a steady state may have.
SHIFT = 1e-8
TOL = 1e-10
#: An estimated gap below DEGENERACY_TOL makes the steady state count
#: as degenerate (solve_steady_state).
DEGENERACY_TOL = 1e-6
POSITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class LindbladGenerator:
    """Sparse superoperator for one parameter point."""

    params: ModelParams
    ops: SpinOperatorSet
    matrix: "scipy.sparse.csc_matrix"

    @property
    def dimension(self) -> int:
        return self.ops.dimension

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action of the generator on a (dim, dim) matrix."""
        d = self.dimension
        return (self.matrix @ rho.reshape(d * d)).reshape(d, d)

    @cached_property
    def lu(self):
        """Sparse LU of R - SHIFT, factorized on first use.

        R is L in real coordinates. Only liouvillian_spectrum uses it:
        the gap's Arnoldi run applies the inverse through this factor,
        on real vectors, and it lives as long as the generator. SuperLU
        cannot be pickled, and neither can a generator once this has run.
        """
        p = self.params
        real_h, shifted_d = _real_pieces(p.n_spins, p.theta)
        try:
            return splu((p.omega * real_h + shifted_d).tocsc())
        except RuntimeError as exc:
            raise ConvergenceError(f"sparse LU factorization failed: {exc}") from exc

    @cached_property
    def _closed_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A = beta - St (module docstring) and its SVD U, s (descending), V'."""
        p = self.params
        beta = -0.5j * p.n_spins * p.omega / (math.cos(p.theta) + math.sin(p.theta))
        a = np.diag(np.full(self.dimension, beta)) - self.ops.s_theta
        try:
            return (a, *np.linalg.svd(a))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"closed-form steady state: {exc}") from exc

    @cached_property
    def null_state(self) -> SteadyState:
        """rho_ss in closed form, without the LU or the uniqueness check.

        rho_ss = (A'A)^-1 / tr with A = beta - St (module docstring),
        which is X X' / tr for X = s_min A^-1 = V diag(s_min/s) U' with
        the SVD A = U diag(s) V', and s_min/s = 1 where s = 0. No entry
        of diag(s_min/s) exceeds 1, so one formula covers omega = 0 at
        both parities of N (A = -St may be singular there), omega < 0
        and theta > pi/4. One step of iterative refinement through the
        same SVD, X += A^+ (s_min - A X), keeps the residual at round-off
        at large drives. A residual above TOL raises ConvergenceError.
        solve_steady_state returns this object, and liouvillian_spectrum
        deflates with it; it holds no reference to the generator.
        """
        a, u, s, vh = self._closed_form
        v, uh = vh.conj().T, u.conj().T
        x = (v * _ratio(s)) @ uh
        x += (v * _inverse(s)) @ (uh @ (s[-1] * np.eye(self.dimension) - a @ x))
        steady = _finalize(x @ x.conj().T, self, "closed_form")
        if not steady.residual <= TOL:
            raise ConvergenceError(
                f"closed-form steady state has residual {steady.residual:.2e} above {TOL:.1e}"
            )
        return steady

    def state_derivative(self, lambda_name: str) -> np.ndarray:
        """Exact d(rho_ss)/d(lambda) for lambda = omega or theta.

        rho_ss = V diag(p) V' with p = w/sum(w), w = (s_min/s)^2, from
        null_state's SVD. With G = U' (dA/dlambda) V, a = Re diag(G)/s
        and Y = diag(1/s) G diag(p), V' drho V is -(Y + Y') off the
        diagonal and 2 p_i sum_{j != i} p_j (a_j - a_i) on it: the j = i
        terms, of order 1/s_min, cancel and are never formed. Where
        s <= 1e-15 s_max, 1/s and a count as 0, which drops terms of
        order s_min/s_j^2.
        """
        p = self.params
        c, s_t = math.cos(p.theta), math.sin(p.theta)
        dbeta = -0.5j * p.n_spins / (c + s_t) * np.eye(self.dimension)  # d(beta)/d(omega)
        if lambda_name == "omega":
            da = dbeta
        elif lambda_name == "theta":
            da = p.omega * (s_t - c) / (c + s_t) * dbeta - (-s_t * self.ops.s_minus + c * self.ops.s_plus)
        else:
            raise ValidationError(f"lambda_name must be 'omega' or 'theta', got {lambda_name!r}")
        _, u, s, vh = self._closed_form
        v = vh.conj().T
        pop = _ratio(s) ** 2
        pop /= pop.sum()
        inverse = _inverse(s)
        g = u.conj().T @ da @ v
        y = inverse[:, None] * g * pop[None, :]
        dmat = -(y + y.conj().T)
        a = g.diagonal().real * inverse
        # row i sums p_j (a_j - a_i) over j; its j = i term is exactly 0
        np.fill_diagonal(dmat, 2 * pop * ((a[None, :] - a[:, None]) @ pop))
        return v @ dmat @ vh


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
        return _finalize(np.asarray(rho, dtype=complex), None, "external")


@dataclass(frozen=True)
class SpectrumReport:
    """Leading Liouvillian eigenvalues, sorted by descending real part."""

    eigenvalues: np.ndarray
    gap: float
    method: str


def _ratio(s: np.ndarray) -> np.ndarray:
    """s_min/s, and 1 where s = 0."""
    return np.divide(s[-1], s, out=np.ones_like(s), where=s > 0)


def _inverse(s: np.ndarray) -> np.ndarray:
    """1/s, and 0 where s <= 1e-15*s_max, below which round-off fills A^-1."""
    return np.divide(1.0, s, out=np.zeros_like(s), where=s > 1e-15 * s[0])


def splu(matrix):
    """scipy's SuperLU factorization of a sparse matrix, imported when called."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(matrix)


@lru_cache(maxsize=1)
def _hermitian_coordinates(d: int):
    """B from real coordinates to vec(X), and C from Hermitian vec(X) back.

    C @ B is the identity, and C @ L @ B is real for any L that maps
    Hermitian matrices to Hermitian matrices. Each has at most two
    entries per column.
    """
    import scipy.sparse as sparse

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


@lru_cache(maxsize=1)
def _omega_free_pieces(n_spins: int, theta: float):
    """L_H and L_D with L = omega*L_H + L_D.

    L_H = -i(Sx x 1 - 1 x Sx^T) is the drive per unit omega, L_D the
    dissipator.
    """
    import scipy.sparse as sparse

    ops = build_operators(ModelParams(n_spins, 0.0, theta=theta))
    d = ops.dimension
    eye = sparse.identity(d, dtype=complex, format="csr")
    sx, st = sparse.csr_matrix(ops.sx), sparse.csr_matrix(ops.s_theta)
    std_st = sparse.csr_matrix(ops.s_theta.conj().T @ ops.s_theta)
    drive = (-1j * (sparse.kron(sx, eye) - sparse.kron(eye, sx.T))).tocsc()
    decay = (
        (1.0 / n_spins)
        * (2 * sparse.kron(st, st.conj()) - sparse.kron(std_st, eye) - sparse.kron(eye, std_st.T))
    ).tocsc()
    return drive, decay


@lru_cache(maxsize=1)
def _real_pieces(n_spins: int, theta: float):
    """R_H and R_D - SHIFT, the real forms of L_H and L_D, for the LU."""
    import scipy.sparse as sparse

    to_vec, to_real = _hermitian_coordinates(n_spins + 1)
    real_h, real_d = ((to_real @ m @ to_vec).real.tocsc() for m in _omega_free_pieces(n_spins, theta))
    return real_h, (real_d - SHIFT * sparse.identity(real_d.shape[0], format="csc")).tocsc()


def build_generator(params: ModelParams) -> LindbladGenerator:
    """Assemble the vectorized Lindblad superoperator, stored sparse."""
    ops = build_operators(params)
    drive, decay = _omega_free_pieces(params.n_spins, params.theta)
    return LindbladGenerator(params, ops, (params.omega * drive + decay).tocsc())


def _finalize(rho_raw: np.ndarray, gen: LindbladGenerator | None, method: str) -> SteadyState:
    """Hermitize, trace-normalize, clamp the spectrum, and package.

    rho is not rebuilt from the clamped spectrum: L would amplify the
    eigensolver's round-off by |omega|*N."""
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

    residual = float(np.linalg.norm(gen.matrix @ rho.reshape(-1))) if gen is not None else 0.0
    return SteadyState(
        rho=rho,
        populations=p,
        basis=v,
        residual=residual,
        purity=float((p**2).sum()),
        method=method,
    )


def _slow_chain(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of -W (module docstring) and the products W_{m,m+1} W_{m+1,m}.

    No rate is negative, so these are the diagonal and squared
    off-diagonal of a symmetric tridiagonal matrix with the spectrum of
    -W, also at omega = 0, where the rates out of m = 0 vanish one way.
    """
    n, s = params.n_spins, params.s
    a = math.cos(params.theta) + math.sin(params.theta)
    x = n * params.omega / (a * a)
    m = np.arange(-s, s + 1)
    rate = (1.0 + (4 * m * m - 1) / (1.0 + x * x)) / (2 * n)
    up, down = (s * (s + 1) - m * (m + 1)) * rate, (s * (s + 1) - m * (m - 1)) * rate
    return up + down, up[:-1] * down[1:]


def slow_rate(params: ModelParams) -> float:
    """lambda_1(W): near theta = pi/4 the gap is eps^2 times this (module docstring)."""
    diag, coupling = _slow_chain(params)
    off = np.sqrt(coupling)
    return float(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[1])


def _modes_below(diag: np.ndarray, coupling: np.ndarray, limit: float) -> int:
    """Sturm count: eigenvalues below `limit` of _slow_chain's tridiagonal matrix."""
    count, pivot = 0, 1.0
    for d, e2 in zip(diag.tolist(), [0.0, *coupling.tolist()]):
        pivot = d - limit - e2 / pivot
        count += pivot < 0
        pivot = pivot or 1e-300  # nudges an eigenvalue at `limit` above it
    return count


def solve_steady_state(gen: LindbladGenerator) -> SteadyState:
    """The unique steady state, gen.null_state, or DegenerateSteadyStateError.

    The error is raised iff the estimated gap eps^2*lambda_1(W) (module
    docstring) is below DEGENERACY_TOL, where the closed form would
    return one of several steady states. The zero mode is always below
    the limit, so an O(N) Sturm count decides it; no LU is built.
    """
    p = gen.params
    eps = math.cos(p.theta) - math.sin(p.theta)  # 1.1e-16 at math.pi/4, never 0.0
    if _modes_below(*_slow_chain(p), DEGENERACY_TOL / eps**2) >= 2:
        rate = slow_rate(p)
        raise DegenerateSteadyStateError(
            f"estimated gap eps^2*lambda1(W) = {eps * eps * rate:.2e} is below DEGENERACY_TOL "
            f"= {DEGENERACY_TOL:.0e} (eps = cos(theta) - sin(theta) = {eps:.2e}; lambda1(W) = "
            f"{rate:.4g}): steady state is not unique at this tolerance"
        )
    return gen.null_state


def liouvillian_spectrum(gen: LindbladGenerator, k: int = 6, *, seed: int = 0) -> SpectrumReport:
    """Leading-k Liouvillian eigenvalues and the spectral gap.

    eigenvalues holds the zero mode, then the k-1 slowest decaying modes
    by descending real part; gap is -Re of the second (the asymptotic
    decay rate). Only problems too small for ARPACK to return k-1
    modes are diagonalized densely.

    Otherwise ARPACK runs on P (R - SHIFT)^-1 P through gen.lu, its only
    user (R has the spectrum of L), and each eigenvalue mu maps back to
    SHIFT + 1/mu. P x = x - rho_ss*tr(x) removes the zero mode, whose
    left eigenvector is the trace and right one gen.null_state; in real
    coordinates tr(x) sums the diagonal ones. null_state skips the
    uniqueness check, so a degenerate kernel reports a gap of ~0
    instead of raising. `seed` draws ARPACK's start vector.
    """
    if k < 2:
        raise ValidationError("k must be at least 2 to define a gap")
    dim2 = gen.dimension**2
    import scipy.linalg
    import scipy.sparse.linalg

    if k - 1 >= dim2 - 2:
        vals = scipy.linalg.eigvals(gen.matrix.toarray())
        vals = vals[np.argsort(-vals.real)][:k]
        return SpectrumReport(eigenvalues=vals, gap=float(-vals[1].real), method="dense")

    d, rho, lu = gen.dimension, _pack(gen.null_state.rho), gen.lu

    def deflate(x: np.ndarray) -> np.ndarray:
        return x - rho * x[:: d + 1].sum()

    v0 = deflate(np.random.default_rng(seed).standard_normal(dim2))
    op = scipy.sparse.linalg.LinearOperator(
        (dim2, dim2), matvec=lambda x: deflate(lu.solve(deflate(x))), dtype=float
    )
    try:
        mu = scipy.sparse.linalg.eigs(op, k=k - 1, which="LM", v0=v0, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc
    modes = SHIFT + 1.0 / mu
    vals = np.concatenate(([0j], modes[np.argsort(-modes.real)]))
    return SpectrumReport(eigenvalues=vals, gap=float(-vals[1].real), method="arnoldi")
