"""Invariants of the generator, the steady state and the QFI over random points.

Examples are derandomized, so every run draws the same points.
"""

import math

import numpy as np
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_null_steady
from spincrit import (
    ModelParams,
    build_generator,
    build_operators,
    qfi_perturbed,
    solve_steady_state,
    spin_direction_operator,
    trace_distance,
    variance,
)

# the kernel is degenerate only near theta = pi/4
points = st.builds(
    ModelParams,
    n_spins=st.integers(1, 10),
    omega=st.floats(0.0, 2.0),
    gamma=st.floats(0.1, 10.0),
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
    assert steady.residual <= 1e-9 * params.gamma


@deterministic
@given(points)
def test_steady_state_matches_dense_null_oracle(params):
    gen = build_generator(params)
    assert trace_distance(solve_steady_state(gen).rho, dense_null_steady(gen)) <= 1e-10


@deterministic
@given(points, st.floats(0.1, 10.0))
def test_steady_state_is_invariant_under_rate_rescaling(params, c):
    scaled = ModelParams(params.n_spins, c * params.omega, c * params.gamma, params.theta)
    rho = solve_steady_state(build_generator(params)).rho
    assert trace_distance(rho, solve_steady_state(build_generator(scaled)).rho) <= 1e-10


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
