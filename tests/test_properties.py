"""Invariants of the generator, the steady state and the QFI over random points.

Examples are derandomized, so every run draws the same points.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import degeneracy_probe, dense_null_steady, dense_state_derivative
from spincrit import (
    DegenerateSteadyStateError,
    ModelParams,
    build_generator,
    build_operators,
    qfi_perturbed,
    solve_steady_state,
    spin_direction_operator,
    trace_distance,
    variance,
)
from spincrit.liouvillian import DEGENERACY_TOL, slow_rate
from spincrit.operators import MAX_SPINS

# the kernel is degenerate only near theta = pi/4; omega in [0, 20] is
# drawn as a drive over a rate, so the examples stay those the strategy
# drew when ModelParams took the rate
points = st.builds(
    lambda n_spins, omega, rate, theta: ModelParams(n_spins, omega / rate, theta=theta),
    n_spins=st.integers(1, 10),
    omega=st.floats(0.0, 2.0),
    rate=st.floats(0.1, 10.0),
    theta=st.floats(0.0, 0.7),
)
# omega uniform in [0, 20] reaches small gaps, where a residual bound
# alone does not bound the state error
uniform_points = st.builds(
    ModelParams,
    n_spins=st.integers(1, 10),
    omega=st.floats(0.0, 20.0),
    theta=st.floats(0.0, 0.7),
)
deterministic = settings(deadline=None, derandomize=True)


@deterministic
@given(points, st.integers(0, 2**32 - 1))
def test_generator_preserves_trace_and_hermiticity(params, seed):
    gen = build_generator(params)
    rng = np.random.default_rng(seed)
    d = params.dimension
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    out = gen.apply(x)
    tol = 1e-13 * np.linalg.norm(x) * scipy.sparse.linalg.norm(gen.matrix, 1)
    assert abs(np.trace(out)) <= tol
    assert np.linalg.norm(gen.apply(x.conj().T).conj().T - out) <= tol


@deterministic
@given(points)
def test_steady_state_is_a_density_matrix(params):
    steady = solve_steady_state(build_generator(params))
    assert np.linalg.eigvalsh(steady.rho).min() >= -1e-12
    assert abs(np.trace(steady.rho) - 1.0) <= 1e-12
    assert steady.residual <= 1e-9


@settings(deterministic, max_examples=600)
@given(st.one_of(points, uniform_points))
@example(ModelParams(5, 18.0, theta=0.625))
@example(ModelParams(20, 0.0, theta=0.3))
@example(ModelParams(21, 0.0, theta=0.3))
@example(ModelParams(8, 2 * abs(math.cos(2.0)), theta=1.0))
@example(ModelParams(7, -0.5, theta=1.0))
def test_steady_state_matches_dense_null_oracle(params):
    gen = build_generator(params)
    assert trace_distance(solve_steady_state(gen).rho, dense_null_steady(gen)) <= 1e-10


@deterministic
@given(points, st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
def test_perturbed_qfi_is_bounded_by_generator_variance(params, polar, azimuth):
    steady = solve_steady_state(build_generator(params))
    direction = [
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    ]
    gmat = spin_direction_operator(build_operators(params), direction)
    qfi = qfi_perturbed(steady, gmat)
    assert 0.0 <= qfi <= 4 * variance(gmat, steady.rho) * (1 + 1e-9) + 1e-12


@deterministic
@given(points)
def test_steady_state_has_parity_symmetry(params):
    # e^{i pi Sz} with omega -> -omega, then conjugation: rho = P rho^T P
    rho = solve_steady_state(build_generator(params)).rho
    parity = (-1.0) ** np.arange(params.dimension)
    mirrored = parity[:, None] * rho.T * parity[None, :]
    assert np.abs(rho - mirrored).max() <= 1e-12


@deterministic
@given(points)
def test_negative_drive_conjugates_the_steady_state(params):
    mirror = replace(params, omega=-params.omega)
    rho = solve_steady_state(build_generator(params)).rho
    assert np.abs(solve_steady_state(build_generator(mirror)).rho - rho.conj()).max() <= 1e-12


@deterministic
@given(points, st.sampled_from(["omega", "theta"]))
@example(ModelParams(20, 0.0, theta=0.3), "omega")
@example(ModelParams(20, 0.0, theta=0.3), "theta")
@example(ModelParams(21, 0.0, theta=0.3), "omega")
@example(ModelParams(21, 0.0, theta=0.3), "theta")
@example(ModelParams(8, 0.3, theta=1.0), "omega")
@example(ModelParams(8, 0.3, theta=1.0), "theta")
@example(ModelParams(7, -0.5, theta=0.3), "omega")
@example(ModelParams(7, -0.5, theta=0.3), "theta")
def test_state_derivative_matches_dense_oracle(params, lambda_name):
    gen = build_generator(params)
    exact = gen.state_derivative(lambda_name)
    oracle = dense_state_derivative(params, gen.null_state.rho, lambda_name)
    assert np.linalg.norm(exact - oracle) <= 1e-9 * max(np.linalg.norm(oracle), 1e-12)


def _refused(params):
    """Whether solve_steady_state refuses `params` as degenerate.

    The uniqueness rule reads only gen.params, so a stand-in generator
    lets it run at N where assembling L would dominate the test.
    """
    try:
        solve_steady_state(SimpleNamespace(params=params, null_state=None))
    except DegenerateSteadyStateError:
        return True
    return False


# theta = pi/4 -+ delta, delta log-uniform in [1e-4, 0.2], so the
# threshold (delta ~ 1e-3 for these drives) is drawn as often as the rest
near_quarter = st.builds(
    lambda n_spins, omega, log_delta, side: ModelParams(
        n_spins, omega, theta=math.pi / 4 + side * 10.0**log_delta
    ),
    n_spins=st.integers(1, 50),
    omega=st.floats(0.0, 3.0),
    log_delta=st.floats(-4.0, math.log10(0.2)),
    side=st.sampled_from([-1, 1]),
)


@deterministic
@given(near_quarter)
@example(ModelParams(50, 0.3, theta=math.pi / 4 - 1e-3))
@example(ModelParams(50, 0.3, theta=math.pi / 4 + 1e-3))
@example(ModelParams(6, 0.0, theta=math.pi / 4 - 3e-4))
@example(ModelParams(7, 0.0, theta=math.pi / 4 + 3e-4))
def test_uniqueness_rule_matches_probe_and_dense_spectrum(params):
    eps = math.cos(params.theta) - math.sin(params.theta)
    ratio = eps * eps * slow_rate(params) / DEGENERACY_TOL
    refused = _refused(params)
    # the O(N) Sturm count agrees with the eigenvalue it stands for
    if abs(ratio - 1) > 1e-9:
        assert refused == (ratio < 1)
    gen = build_generator(params)
    # the probe's threshold is soft: on a grid it flagged estimates up
    # to 1.21 DEGENERACY_TOL, so it is compared outside a factor 1.5
    if not 1 / 1.5 < ratio < 1.5:
        assert degeneracy_probe(gen) == refused
    if params.n_spins <= 12 and not 0.99 < ratio < 1.01:
        gap = np.sort(-np.linalg.eigvals(gen.matrix.toarray()).real)[1]
        assert (gap < DEGENERACY_TOL) == refused


@deterministic
@given(
    st.integers(1, MAX_SPINS),
    st.floats(-1e4, 1e4),
    st.one_of(
        st.floats(0.0, math.pi / 4 - 0.05),
        st.floats(math.pi / 4 + 0.05, math.pi / 2, exclude_max=True),
    ),
)
@example(MAX_SPINS, 1e4, math.pi / 4 - 0.05)
@example(MAX_SPINS, -1e4, math.pi / 4 + 0.05)
@example(MAX_SPINS, 0.0, 0.0)
@example(MAX_SPINS - 1, 0.0, 1.57)
def test_uniqueness_rule_never_refuses_away_from_a_quarter(n_spins, omega, theta):
    # there the slowest rate is 1/N at large drives, so eps^2/N >= 2.5e-6
    assert not _refused(ModelParams(n_spins, omega, theta=theta))
