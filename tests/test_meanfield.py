import math
from dataclasses import replace

import numpy as np
import pytest

from spincrit import (
    ModelParams,
    PhaseDomainError,
    ValidationError,
    analytic_qfi_chi,
    bound_omega,
    bound_theta,
    build_generator,
    build_operators,
    expectation,
    gaussian_steady_state,
    hp_coefficients,
    magnetization,
    optimal_theta,
    predict_signals,
    predictions,
    scaling_exponents,
    solve_steady_state,
)

PI8 = math.pi / 8


def random_ferromagnetic_params(rng, n_spins=50):
    """Random point strictly inside the ferromagnetic phase."""
    theta = rng.uniform(0.0, math.pi / 4 - 0.05)
    rng.uniform(0.3, 2.5)  # unused draw, kept so the seeded points do not move
    omega = rng.uniform(0.02, 0.9) * math.cos(2 * theta)
    return ModelParams(n_spins, omega, theta=theta)


class TestHPCoefficients:
    def test_undriven_limit(self):
        co = hp_coefficients(ModelParams(10, 0.0, theta=PI8))
        assert co.m == pytest.approx(1.0, abs=1e-14)
        assert abs(co.beta) == pytest.approx(0.0, abs=1e-14)
        assert co.k == pytest.approx(2.0, abs=1e-14)
        assert co.a_coef == pytest.approx(math.sqrt(2), abs=1e-14)
        assert co.b_coef == pytest.approx(0.0, abs=1e-14)

    def test_magnetization_at_half_critical_frequency(self):
        # direct evaluation: (0.5/cos(pi/4))^2 = 1/2, so M = sqrt(1/2)
        co = hp_coefficients(ModelParams(10, 0.5, theta=PI8))
        assert co.m == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_hand_case_theta_zero(self):
        # Gamma=1, theta=0, Omega=0.6: omega_c=1, M=0.8, k=1.8,
        # A=3.4/(2 sqrt(1.8)), B=0.2/(2 sqrt(1.8)); with G+ = cross = 0
        # the mode rates collapse to gamma- = A^2, gamma+ = B^2, eta = AB
        co = hp_coefficients(ModelParams(10, 0.6, theta=0.0))
        a = 3.4 / (2 * math.sqrt(1.8))
        b = 0.2 / (2 * math.sqrt(1.8))
        assert co.m == pytest.approx(0.8, abs=1e-14)
        assert co.k == pytest.approx(1.8, abs=1e-14)
        assert co.a_coef == pytest.approx(a, abs=1e-14)
        assert co.b_coef == pytest.approx(b, abs=1e-14)
        assert co.big_gamma_plus == 0.0
        assert co.cross == 0.0
        assert co.gamma_minus == pytest.approx(a * a, abs=1e-14)
        assert co.gamma_plus == pytest.approx(b * b, abs=1e-14)
        assert co.eta == pytest.approx(a * b, abs=1e-14)

    def test_structural_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = random_ferromagnetic_params(rng)
            co = hp_coefficients(params)
            assert abs(co.beta) ** 2 == pytest.approx(1.0 - co.m, abs=1e-12)
            assert co.k == pytest.approx(1.0 + co.m, abs=1e-12)
            assert co.gamma_minus - co.gamma_plus > 0
            rebuilt = (
                co.big_gamma_minus * co.a_coef**2
                + co.big_gamma_plus * co.b_coef**2
                + 2 * co.cross * co.a_coef * co.b_coef
            )
            assert co.gamma_minus == pytest.approx(rebuilt, abs=1e-12)

    @pytest.mark.parametrize(
        "omega,theta",
        [
            (0.71, PI8),          # above omega_c = cos(pi/4)
            (0.7071067811865476, PI8),  # exactly at omega_c
            (0.1, math.pi / 4),   # omega_c = 0
            (0.1, 1.2),           # theta > pi/4, omega_c < 0
            (-0.5, PI8),          # the expansion assumes omega >= 0
        ],
    )
    def test_phase_domain_errors(self, omega, theta):
        with pytest.raises(PhaseDomainError):
            hp_coefficients(ModelParams(10, omega, theta=theta))

    def test_magnetization_helper_thermal_phase(self):
        assert magnetization(ModelParams(10, 0.9, theta=PI8)) == 0.0
        assert magnetization(ModelParams(10, 0.2, theta=1.2)) == 0.0
        # omega -> -omega is a symmetry (e^{i pi Sz}), so -2 is thermal too
        assert magnetization(ModelParams(10, -2.0, theta=PI8)) == 0.0
        assert magnetization(ModelParams(10, 0.5, theta=PI8)) == pytest.approx(
            0.7071067811865476, abs=1e-12
        )


class TestGaussianState:
    def test_determinant_is_one_over_random_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            gauss = gaussian_steady_state(hp_coefficients(random_ferromagnetic_params(rng)))
            assert gauss.sigma11 * gauss.sigma22 == pytest.approx(1.0, abs=1e-10)
            assert gauss.purity == pytest.approx(1.0, abs=1e-10)

    def test_squeezing_parameter_value(self):
        # direct evaluation of (1/2) ln[(1+M)(sqrt(G-)+sqrt(G+))^2/(2 omega_c M)]
        gauss = gaussian_steady_state(hp_coefficients(ModelParams(10, 0.5, theta=PI8)))
        assert gauss.r == pytest.approx(0.5347999967395702, abs=1e-12)

    def test_momentum_antisqueezed_convention(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            gauss = gaussian_steady_state(hp_coefficients(random_ferromagnetic_params(rng)))
            assert gauss.sigma22 >= 1.0 >= gauss.sigma11
            assert gauss.r == pytest.approx(0.5 * math.log(gauss.sigma22), abs=1e-10)

    def test_squeezing_diverges_towards_critical(self):
        rs = [
            gaussian_steady_state(hp_coefficients(ModelParams(10, f * 0.7071067811865476, theta=PI8))).r
            for f in (0.9, 0.99, 0.999)
        ]
        assert rs[0] < rs[1] < rs[2]

    def test_instability_guard(self):
        co = hp_coefficients(ModelParams(10, 0.3, theta=PI8))
        broken = replace(co, gamma_minus=co.gamma_plus)
        with pytest.raises(PhaseDomainError):
            gaussian_steady_state(broken)


class TestSignals:
    def test_dark_pole(self):
        sig = predict_signals(hp_coefficients(ModelParams(10, 0.0, theta=PI8)), 10)
        assert sig.sz == -1.0
        assert sig.sy == 0.0
        assert sig.var_sz == pytest.approx(0.0, abs=1e-14)

    def test_against_displayed_formulas(self):
        params = ModelParams(100, 0.5, theta=PI8)
        co = hp_coefficients(params)
        sig = predict_signals(co, 100)
        oc = params.omega_c
        m = co.m
        rate2 = (math.cos(PI8) + math.sin(PI8)) ** 2
        assert sig.sz == pytest.approx(-m, abs=1e-14)
        assert sig.sy == pytest.approx(0.5 / oc, abs=1e-14)
        assert sig.var_sz == pytest.approx((2 / 100) * (1 - m * m) / (2 * oc * m) * rate2, abs=1e-15)
        assert sig.var_sy == pytest.approx((2 / 100) * m / (2 * oc) * rate2, abs=1e-15)

    def test_variance_consistency_with_gaussian_state(self):
        # two routes: the displayed variance formulas versus the quadrature
        # covariance carried by the fluctuation expansion,
        # s_z^(1) = -|beta| p and s_y^(1) = -((A-B)/2) p
        rng = np.random.default_rng(4)
        for _ in range(10):
            params = random_ferromagnetic_params(rng, n_spins=77)
            co = hp_coefficients(params)
            gauss = gaussian_steady_state(co)
            sig = predict_signals(co, params.n_spins)
            eps2 = 2 / params.n_spins
            beta2 = abs(co.beta) ** 2
            assert sig.var_sz == pytest.approx(eps2 * beta2 * gauss.sigma22, rel=1e-12)
            quarter = (co.a_coef - co.b_coef) ** 2 / 4
            assert sig.var_sy == pytest.approx(eps2 * quarter * gauss.sigma22, rel=1e-12)

    def test_exact_solver_converges_to_mean_field(self):
        # |<s_z>_exact + M| should fall like c/N with c <= 5
        theta = PI8
        omega = 0.5 * math.cos(2 * theta)
        m = math.sqrt(1 - 0.25)
        gaps = []
        for n in (25, 50, 100):
            params = ModelParams(n, omega, theta=theta)
            steady = solve_steady_state(build_generator(params))
            sz = expectation(np.asarray(build_operators(params).sz) / params.s, steady.rho)
            diff = abs(sz + m)
            assert diff <= 5.0 / n
            gaps.append(diff)
        assert gaps[0] > gaps[1] > gaps[2]


class TestBounds:
    def test_bound_omega_frozen_value(self):
        # (1/10) * (cos^2(pi/4))^{1/4} * (cos(pi/8) + sin(pi/8))
        value = bound_omega(ModelParams(100, 0.0, theta=PI8), 100)
        assert value == pytest.approx(0.109868411346781, abs=1e-12)

    def test_bound_vanishes_at_critical(self):
        oc = math.cos(2 * PI8)
        values = [bound_omega(ModelParams(100, f * oc, theta=PI8), 100) for f in (0.5, 0.9, 0.9999)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.02

    def test_bound_omega_matches_signal_chain(self):
        # sqrt(var)/(signal slope) along either quadrature reproduces the
        # closed-form bound; slopes by hand: d<s_z>/dW = W/(oc^2 M),
        # d<s_y>/dW = 1/oc
        rng = np.random.default_rng(31)
        for _ in range(10):
            params = random_ferromagnetic_params(rng, n_spins=64)
            co = hp_coefficients(params)
            sig = predict_signals(co, params.n_spins)
            oc = params.omega_c
            slope_z = params.omega / (oc * oc * co.m)
            chain_z = math.sqrt(sig.var_sz) / slope_z
            chain_y = math.sqrt(sig.var_sy) * oc
            bound = bound_omega(params, params.n_spins)
            assert chain_z == pytest.approx(bound, rel=1e-10)
            assert chain_y == pytest.approx(bound, rel=1e-10)

    def test_bound_theta_frozen_value(self):
        value = bound_theta(ModelParams(100, 0.5, theta=PI8), 100)
        assert value == pytest.approx(0.09238795325112871, abs=1e-12)

    def test_bound_theta_checks_the_phase_before_the_drive(self):
        with pytest.raises(PhaseDomainError, match="ferromagnetic phase"):
            bound_theta(ModelParams(100, 0.0, theta=1.2), 100)

    def test_bound_theta_rejects_zero_drive(self):
        with pytest.raises(ValidationError):
            bound_theta(ModelParams(100, 0.0, theta=PI8), 100)

    def test_optimal_theta(self):
        assert optimal_theta(0.5) == pytest.approx(math.pi / 6, abs=1e-12)
        with pytest.raises(ValidationError):
            optimal_theta(0.0)
        with pytest.raises(ValidationError):
            optimal_theta(1.5)



class TestQfiChi:
    def test_frozen_values_at_half_critical(self):
        oc = math.cos(2 * PI8)
        qfi, chi2 = analytic_qfi_chi(ModelParams(100, 0.5 * oc, theta=PI8), 100)
        assert qfi == pytest.approx(278.76937002347034, rel=1e-12)
        assert chi2 == pytest.approx(0.3587194676071504, rel=1e-12)

    def test_product_is_n(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            params = random_ferromagnetic_params(rng, n_spins=48)
            qfi, chi2 = analytic_qfi_chi(params, 48)
            assert qfi * chi2 == pytest.approx(48.0, rel=1e-12)

    def test_shot_noise_point(self):
        # undriven theta=0: chi = 1, the shot-noise limit
        qfi, chi2 = analytic_qfi_chi(ModelParams(64, 0.0, theta=0.0), 64)
        assert chi2 == pytest.approx(1.0, abs=1e-14)
        assert qfi == pytest.approx(64.0, abs=1e-12)

    def test_qfi_grows_towards_critical(self):
        oc = math.cos(2 * PI8)
        qfis = [analytic_qfi_chi(ModelParams(50, f * oc, theta=PI8), 50)[0] for f in (0.3, 0.9, 0.999)]
        assert qfis[0] < qfis[1] < qfis[2]

    def test_thermal_phase_rejected(self):
        with pytest.raises(PhaseDomainError):
            analytic_qfi_chi(ModelParams(50, 0.75, theta=PI8), 50)


class TestPredictions:
    @pytest.mark.parametrize("omega", [-0.9, 0.9])
    def test_thermal_phase_predicts_only_the_zero_order_parameter(self, omega):
        assert predictions(ModelParams(100, omega, theta=0.3927)) == {"m": 0.0, "sz": 0.0}


def test_scaling_exponents():
    exps = scaling_exponents()
    assert exps.d_nu == 1.5
    assert exps.critical_qfi == pytest.approx(4.0 / 3.0)
    # substituting d*nu into -d*nu/2 + 1 gives the off-critical exponent
    assert exps.off_critical_bound == pytest.approx(-1.5 / 2 + 1)
    assert exps.critical_chi == pytest.approx(-1.0 / 3.0)
