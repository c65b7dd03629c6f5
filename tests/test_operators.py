import math
from dataclasses import fields

import numpy as np
import pytest

from spincrit import (
    ModelParams,
    ValidationError,
    build_generator,
    build_operators,
    expectation,
    solve_steady_state,
    spin_direction_operator,
    trace_distance,
    variance,
)
from spincrit.operators import MAX_SPINS


def dark_state(n):
    rho = np.zeros((n + 1, n + 1), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def coherent_plus_x(n):
    """Spin coherent state along +x: binomial amplitudes over m."""
    amps = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)]) / 2 ** (n / 2)
    return np.outer(amps, amps).astype(complex)


class TestModelParams:
    def test_derived_quantities(self):
        p = ModelParams(10, 0.3, theta=0.2)
        assert p.s == 5.0
        assert p.dimension == 11
        assert p.omega_c == math.cos(0.4)

    def test_omega_c_recomputed_from_theta(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi / 2 - 1e-3)
            p = ModelParams(4, 0.1, theta=theta)
            assert p.omega_c == math.cos(2 * theta)

    def test_rate_is_the_unit(self):
        # omega is in units of the collective rate, and theta is keyword-only,
        # so a call written for (n, omega, gamma, theta) fails loudly
        assert [f.name for f in fields(ModelParams)] == ["n_spins", "omega", "theta"]
        with pytest.raises(TypeError):
            ModelParams(4, 0.1, 0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_spins": 0},
            {"n_spins": -3},
            {"omega": math.nan},
            {"n_spins": 2.5},
            {"theta": -0.1},
            {"theta": math.pi / 2},
            {"omega": math.inf},
        ],
    )
    def test_invalid_params(self, kwargs):
        base = {"n_spins": 4, "omega": 0.2, "theta": 0.1}
        base.update(kwargs)
        with pytest.raises(ValidationError):
            ModelParams(**base)


class TestBuildOperators:
    def test_single_spin_lowering_is_pauli_minus(self):
        ops = build_operators(ModelParams(1, 0.0))
        expected = np.array([[0, 1], [0, 0]], dtype=complex)  # index 0 is m=-1/2
        np.testing.assert_allclose(ops.s_minus, expected, atol=1e-15)

    def test_two_spin_jump_operator_at_theta_zero(self):
        # sqrt(S(S+1) - m(m-1)) for S=1 gives sqrt(2) for both m=0 and m=1
        ops = build_operators(ModelParams(2, 0.0, theta=0.0))
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = expected[1, 2] = math.sqrt(2)
        np.testing.assert_allclose(ops.s_theta, expected, atol=1e-15)
        np.testing.assert_allclose(ops.s_theta, ops.s_minus, atol=0)

    def test_theta_pi4_jump_is_sqrt2_sx(self):
        for n in (1, 3, 6):
            ops = build_operators(ModelParams(n, 0.0, theta=math.pi / 4))
            np.testing.assert_allclose(ops.s_theta, math.sqrt(2) * ops.sx, atol=1e-14)

    def test_theta_zero_jump_equals_lowering_exactly(self):
        ops = build_operators(ModelParams(5, 0.0, theta=0.0))
        assert np.array_equal(ops.s_theta, ops.s_minus)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30])
    def test_su2_algebra_and_casimir(self, n):
        ops = build_operators(ModelParams(n, 0.0, theta=0.3))
        s = n / 2
        scale = max(1.0, s * s)
        eye = np.eye(n + 1)
        assert np.abs(ops.sx @ ops.sy - ops.sy @ ops.sx - 1j * ops.sz).max() <= 1e-10 * scale
        assert np.abs(ops.sy @ ops.sz - ops.sz @ ops.sy - 1j * ops.sx).max() <= 1e-10 * scale
        assert np.abs(ops.sz @ ops.sx - ops.sx @ ops.sz - 1j * ops.sy).max() <= 1e-10 * scale
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        assert np.abs(casimir - s * (s + 1) * eye).max() <= 1e-10 * scale

    def test_hermiticity_and_adjoint_pairing(self):
        ops = build_operators(ModelParams(7, 0.0, theta=0.35))
        for mat in (ops.sx, ops.sy, ops.sz):
            assert np.abs(mat - mat.conj().T).max() < 1e-14
        assert np.abs(ops.s_plus - ops.s_minus.conj().T).max() == 0.0
        # jump operator mixes raising and lowering, so it is not normal
        assert np.abs(ops.s_theta - ops.s_theta.conj().T).max() > 0.1

    def test_ladder_identities(self):
        ops = build_operators(ModelParams(9, 0.0))
        np.testing.assert_allclose(ops.sx, (ops.s_plus + ops.s_minus) / 2, atol=1e-15)
        np.testing.assert_allclose(ops.sy, (ops.s_plus - ops.s_minus) / 2j, atol=1e-15)

    def test_dimension_guard(self):
        with pytest.raises(ValidationError):
            build_operators(ModelParams(MAX_SPINS + 1, 0.0))

    def test_operators_are_frozen(self):
        ops = build_operators(ModelParams(3, 0.0))
        with pytest.raises(ValueError):
            ops.sz[0, 0] = 5.0


class TestExpectationVariance:
    def test_identity_traces_to_one(self):
        n = 6
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho).real
        assert expectation(np.eye(n + 1), rho) == pytest.approx(1.0, abs=1e-12)
        assert variance(np.eye(n + 1), rho) == pytest.approx(0.0, abs=1e-12)

    def test_lowest_weight_state(self):
        n = 8
        ops = build_operators(ModelParams(n, 0.0))
        rho = dark_state(n)
        assert expectation(ops.sz, rho) == pytest.approx(-n / 2, abs=1e-12)
        assert variance(ops.sz, rho) == pytest.approx(0.0, abs=1e-12)

    def test_traceless_on_maximally_mixed(self):
        n = 5
        ops = build_operators(ModelParams(n, 0.0))
        rho = np.eye(n + 1, dtype=complex) / (n + 1)
        assert expectation(ops.sx, rho) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_state_binomial_variance(self):
        # Var(S_z) = N/4 for a coherent state along +x; N=2 gives 1/2
        ops = build_operators(ModelParams(2, 0.0))
        rho = coherent_plus_x(2)
        assert expectation(ops.sx, rho) == pytest.approx(1.0, abs=1e-12)
        assert variance(ops.sz, rho) == pytest.approx(0.5, abs=1e-12)

    def test_variance_ignores_a_shift_of_the_operator(self):
        # a near-pure state, Var(s_z) ~ 2e-4: <op^2> - <op>^2 moved by
        # 1.3e-10 relative when op gained 10*1
        params = ModelParams(100, 0.0, theta=0.3927)
        rho = solve_steady_state(build_generator(params)).rho
        szn = np.asarray(build_operators(params).sz) / params.s
        var = variance(szn, rho)
        assert abs(variance(szn + 10 * np.eye(params.dimension), rho) - var) <= 1e-12 * var

    def test_negative_variance_beyond_round_off_raises(self):
        # trace 1 and Hermitian, but not positive: Var(S_z) = -0.75
        ops = build_operators(ModelParams(1, 0.0))
        with pytest.raises(ValidationError, match="negative beyond round-off"):
            variance(ops.sz, np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian_operator(self):
        ops = build_operators(ModelParams(2, 0.0))
        with pytest.raises(ValidationError):
            expectation(ops.s_plus, dark_state(2))

    def test_rejects_bad_trace(self):
        ops = build_operators(ModelParams(2, 0.0))
        with pytest.raises(ValidationError):
            expectation(ops.sz, 1.5 * dark_state(2))
        with pytest.raises(ValidationError):
            variance(ops.sz, 1.5 * dark_state(2))


class TestSpinDirection:
    def test_axis_directions(self):
        ops = build_operators(ModelParams(4, 0.0))
        np.testing.assert_allclose(spin_direction_operator(ops, [0, 0, 1]), ops.sz)
        np.testing.assert_allclose(spin_direction_operator(ops, [1, 0, 0]), ops.sx)

    def test_tilted_generator_direction(self):
        # n = (0, M, sqrt(1-M^2)) mixes sy and sz with those weights
        m = 0.8
        ops = build_operators(ModelParams(4, 0.0))
        direction = [0.0, m, math.sqrt(1 - m * m)]
        expected = m * ops.sy + math.sqrt(1 - m * m) * ops.sz
        np.testing.assert_allclose(spin_direction_operator(ops, direction), expected, atol=1e-15)

    def test_accepts_params_directly(self):
        p = ModelParams(3, 0.0)
        np.testing.assert_allclose(
            spin_direction_operator(p, [0, 1, 0]), build_operators(p).sy
        )

    def test_rejects_non_unit_vector(self):
        ops = build_operators(ModelParams(2, 0.0))
        with pytest.raises(ValidationError):
            spin_direction_operator(ops, [0.0, 0.0, 1.0 + 1e-6])


def test_trace_distance_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
