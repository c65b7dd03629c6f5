"""Brute-force references that the solver is tested against.

The dense SVD costs O((N+1)^6) and the relaxation runs RK45 for up to
t = 4000 (in units of the inverse collective rate), so both are for small N only. The parity-block spectrum
is a dense eigvals split in two, for N up to a few tens. The package
itself integrates no dynamics; relax() here is the only integrator.
The shift-invert power iteration on the generator's LU, and the
degeneracy probe on the same LU, reach N in the hundreds. The dense
derivative solves the (N+1)^2 system of the
differentiated master equation by least squares, for N up to a few tens.
"""

from dataclasses import replace

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from spincrit import build_operators
from spincrit.liouvillian import (
    DEGENERACY_TOL,
    TOL,
    _hermitian_coordinates,
    _pack,
)


def dense_null_space(gen):
    """Right null vectors of L (one per row), from a dense SVD.

    A singular value counts as zero below 1e-10 times the largest.
    """
    _, svals, vh = np.linalg.svd(gen.matrix.toarray())
    return vh[svals < 1e-10 * svals[0]].conj()


def dense_null_steady(gen):
    """The steady state spanning a one-dimensional dense null space."""
    null = dense_null_space(gen)
    assert len(null) == 1, f"null space has dimension {len(null)}"
    d = gen.dimension
    rho = null[0].reshape(d, d)
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _dense_generator(params, dst=None):
    """L of the module docstring of spincrit.liouvillian as a dense matrix.

    With dst = dSt/dlambda, the dissipator is differentiated along it
    and the drive left out, which is dL/dtheta for dst = dSt/dtheta.
    """
    ops = build_operators(params)
    st, eye = ops.s_theta, np.eye(ops.dimension)

    def dissipator(a, b):
        # rho -> 2 a rho b' - b'a rho - rho b'a; D[St] is dissipator(St, St)
        ba = b.conj().T @ a
        return 2 * np.kron(a, b.conj()) - np.kron(ba, eye) - np.kron(eye, ba.T)

    if dst is None:
        drive = -1j * params.omega * (np.kron(ops.sx, eye) - np.kron(eye, ops.sx.T))
        return drive + dissipator(st, st) / params.n_spins
    return (dissipator(dst, st) + dissipator(st, dst)) / params.n_spins


def dense_state_derivative(params, rho, lambda_name):
    """d(rho_ss)/d(lambda) from L x = -(dL/dlambda) rho with tr x = 0.

    The trace row makes the stacked system full rank, so its least-squares
    solution is the unique one.
    """
    d = params.dimension
    if lambda_name == "omega":
        rate = _dense_generator(replace(params, omega=1.0)) - _dense_generator(
            replace(params, omega=0.0)
        )
    else:
        ops = build_operators(params)
        c, s = np.cos(params.theta), np.sin(params.theta)
        rate = _dense_generator(params, dst=-s * ops.s_minus + c * ops.s_plus)
    system = np.vstack([_dense_generator(params), np.eye(d).reshape(1, -1)])
    rhs = np.concatenate([-rate @ rho.reshape(-1), [0.0]])
    x = np.linalg.lstsq(system, rhs, rcond=None)[0].reshape(d, d)
    return (x + x.conj().T) / 2


def unpack(x, d):
    """Hermitian (d, d) matrix of a real coordinate vector."""
    return (_hermitian_coordinates(d)[0] @ x).reshape(d, d)


def lu_power_steady(gen, max_iter=50):
    """The steady state from shift-invert power iteration on gen.lu.

    Starts from the maximally mixed state and stops once the
    trace-normalized iterate has |L(rho)| < TOL. That rule bounds the
    residual, not the state error, so where the gap is small the state
    can miss 1e-10 in trace distance (N = 5, omega = 18, theta = 0.625
    stops after one step 6.4e-10 away).
    """
    d = gen.dimension
    x = _pack(np.eye(d) / d)
    for _ in range(max_iter):
        y = gen.lu.solve(x)
        x = y / np.linalg.norm(y)
        rho = unpack(x, d)
        rho = rho / np.trace(rho).real
        if np.linalg.norm(gen.matrix @ rho.reshape(-1)) < TOL:
            return (rho + rho.conj().T) / 2
    raise AssertionError(f"no residual below {TOL:.1e} in {max_iter} steps")


def degeneracy_probe(gen, seed=0, steps=6):
    """Whether deflated shift-invert growth finds a second near-zero mode.

    The inverse iteration runs on gen.lu with the zero mode deflated, so
    only decaying modes remain. If it still amplifies by more than
    1/DEGENERACY_TOL, or diverges, a second eigenvalue sits within about
    DEGENERACY_TOL of zero. This is the reference for the O(N) estimate
    that solve_steady_state decides uniqueness by.
    """
    d = gen.dimension
    rho = _pack(gen.null_state.rho)

    def deflate(x):
        return x - rho * x[:: d + 1].sum()

    x = deflate(np.random.default_rng(seed).standard_normal(d * d))
    for _ in range(steps):
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            return False
        x = deflate(gen.lu.solve(deflate(x / nrm)))
        amp = np.linalg.norm(x)
        if not np.isfinite(amp) or amp > 1.0 / DEGENERACY_TOL:
            return True
    return False


def relax(gen, rho, t, *, t_eval=None, rtol=1e-8, atol=1e-12):
    """States of d(vec rho)/dt = L vec(rho) from RK45 up to time t.

    Returns (times, states): the times the integrator kept (or t_eval)
    and the (d, d) density matrices there, unnormalized.
    """
    d = gen.dimension
    sol = solve_ivp(
        lambda _t, v: gen.matrix @ v,
        (0.0, float(t)),
        np.asarray(rho, dtype=complex).reshape(-1),
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
    )
    assert sol.success, sol.message
    return sol.t, sol.y.T.reshape(-1, d, d)


def evolve_to_steady(gen):
    """Relax the maximally mixed state until |L(rho)| < 1e-10.

    Integrates in chunks of t = 25 up to t = 4000; the tolerances put
    the integrator's noise floor below that residual.
    """
    d = gen.dimension
    rho = np.eye(d, dtype=complex) / d
    for _ in range(160):
        rho = relax(gen, rho, 25.0, rtol=1e-11, atol=1e-15)[1][-1]
        if np.linalg.norm(gen.matrix @ rho.reshape(-1)) < 1e-10:
            return rho
    raise AssertionError("no residual below 1e-10 by t = 4000")


def parity_block_spectrum(gen):
    """All eigenvalues of L, from L on the two eigenspaces of J(X) = P X^T P.

    P = diag((-1)^k). J commutes with L, so the spectrum of L is the union
    of the spectra of the two blocks. J = +1 holds every e_kk and
    (E + J(E))/sqrt(2), J = -1 the (E - J(E))/sqrt(2), for the unit
    matrices E = e_ij, i < j.
    """
    d = gen.dimension
    p = np.diag((-1.0) ** np.arange(d))
    rows, cols = np.triu_indices(d, k=1)
    units = np.zeros((len(rows), d, d))
    units[np.arange(len(rows)), rows, cols] = 1.0
    pairs = units.reshape(-1, d * d).T / np.sqrt(2)
    flipped = (p @ units.transpose(0, 2, 1) @ p).reshape(-1, d * d).T / np.sqrt(2)
    even = np.hstack([np.eye(d * d)[:, :: d + 1], pairs + flipped])
    odd = pairs - flipped
    return np.concatenate(
        [scipy.linalg.eigvals(basis.T @ (gen.matrix @ basis)) for basis in (even, odd)]
    )
