import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from spincrit import (
    ModelParams,
    SteadyState,
    SupportLeakWarning,
    ValidationError,
    bound_omega,
    build_generator,
    build_operators,
    chi_squared,
    default_fd_step,
    error_propagation,
    qfi_perturbed,
    qfi_steady,
    sld,
    solve_steady_state,
    steady_derivative,
    steady_solver,
    variance,
    xi_squared,
)
from spincrit.metrology import signal_bound, spectral_qfi

PI8 = math.pi / 8


def uhlmann_fidelity(rho, sigma):
    root = scipy.linalg.sqrtm(rho)
    inner = scipy.linalg.sqrtm(root @ sigma @ root)
    return float(np.trace(inner).real) ** 2


def fidelity_qfi_oracle(solver, lam, h):
    """Bures-metric estimate 8(1 - sqrt(F(rho(l-h), rho(l+h))))/(2h)^2."""
    fid = uhlmann_fidelity(solver(lam - h).rho, solver(lam + h).rho)
    return 8.0 * (1.0 - math.sqrt(fid)) / (2.0 * h) ** 2


def pure_family(angle_scale=1.0, dim=5):
    """Synthetic solver: |psi(l)> = cos(a l)|0> + sin(a l)|2>, QFI = 4 a^2."""

    def solve_at(lam):
        vec = np.zeros(dim, dtype=complex)
        vec[0] = math.cos(angle_scale * lam)
        vec[2] = math.sin(angle_scale * lam)
        return SteadyState.from_density(np.outer(vec, vec.conj()))

    return solve_at


class TestErrorPropagation:
    def test_flat_signal_is_flagged_infinite(self):
        params = ModelParams(6, 0.0, theta=0.0)
        steady = solve_steady_state(build_generator(params))
        constant = lambda lam: steady  # noqa: E731
        ops = build_operators(params)
        assert error_propagation(np.asarray(ops.sx), constant, 0.3, 1e-4) == math.inf

    def test_tracks_closed_form_bound(self):
        params = ModelParams(60, 0.25, theta=PI8)
        solver = steady_solver(params, "omega")
        step = default_fd_step(params, "omega")
        szn = np.asarray(build_operators(params).sz) / params.s
        numeric = error_propagation(szn, solver, params.omega, step)
        analytic = bound_omega(params, 60)
        assert numeric == pytest.approx(analytic, rel=0.15)
        assert numeric >= analytic  # finite size only degrades the bound

    def test_validation(self):
        params = ModelParams(4, 0.2, theta=PI8)
        solver = steady_solver(params, "omega")
        ops = build_operators(params)
        with pytest.raises(ValidationError):
            error_propagation(np.asarray(ops.sz), solver, 0.2, -1.0)
        with pytest.raises(ValidationError):
            error_propagation(np.asarray(ops.s_plus), solver, 0.2, 1e-4)

    def test_approaches_bound_with_n_at_zero_drive(self):
        # at omega=0 only s_y carries a signal slope; the numeric bound
        # approaches (omega_c^2)^{1/4}(sqrt(G-)+sqrt(G+))/sqrt(N) from above
        rels = []
        for n in (40, 80):
            params = ModelParams(n, 0.0, theta=PI8)
            solver = steady_solver(params, "omega")
            syn = np.asarray(build_operators(params).sy) / params.s
            numeric = error_propagation(
                syn, solver, 0.0, default_fd_step(params, "omega")
            )
            analytic = bound_omega(params, n)
            rels.append(abs(numeric - analytic) / analytic)
        assert rels[1] < rels[0] < 0.15

    def test_solver_failure_at_shifted_point_propagates(self):
        params = ModelParams(4, 0.2, theta=PI8)
        ops = build_operators(params)

        def fragile(lam):
            if lam != 0.2:
                raise RuntimeError("no state at shifted parameter")
            return solve_steady_state(build_generator(params))

        with pytest.raises(RuntimeError):
            error_propagation(np.asarray(ops.sz), fragile, 0.2, 1e-3)


class TestQfiSteady:
    def test_pure_family_matches_closed_form(self):
        solver = pure_family(angle_scale=1.0)
        value = qfi_steady(solver, 0.3, step=1e-5)
        assert value == pytest.approx(4.0, rel=1e-6)

    def test_fidelity_oracle_small_system(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            theta = rng.uniform(0.05, 0.6)
            if abs(theta - math.pi / 4) < 0.05:
                theta = 0.6
            params = ModelParams(2, rng.uniform(0.1, 0.6), theta=theta)
            solver = steady_solver(params, "omega")
            h = 1e-3
            value = qfi_steady(solver, params.omega, step=h)
            oracle = fidelity_qfi_oracle(solver, params.omega, h)
            assert value == pytest.approx(oracle, rel=1e-4)

    def test_step_halving_is_stable(self):
        params = ModelParams(6, 0.3, theta=PI8)
        solver = steady_solver(params, "omega")
        step = default_fd_step(params, "omega")
        coarse = qfi_steady(solver, params.omega, step=step)
        fine = qfi_steady(solver, params.omega, step=step / 2)
        assert fine == pytest.approx(coarse, rel=1e-6)

    def test_monotone_growth_towards_critical(self):
        params = ModelParams(60, 0.0, theta=PI8)
        oc = params.omega_c
        solver = steady_solver(params, "omega")
        values = []
        for frac in np.linspace(0.1, 0.85, 10):
            omega = float(frac * oc)
            probe = ModelParams(60, omega, theta=PI8)
            values.append(qfi_steady(solver, omega, step=default_fd_step(probe, "omega")))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_eig_floor_validation(self):
        solver = pure_family()
        with pytest.raises(ValidationError):
            qfi_steady(solver, 0.1, step=1e-4, eig_floor=-1.0)


class TestExactDerivative:
    @staticmethod
    def richardson(params, h):
        """Richardson-extrapolated central difference of rho_ss in omega."""

        def central(step):
            def rho(omega):
                return build_generator(replace(params, omega=omega)).null_state.rho

            return (rho(params.omega + step) - rho(params.omega - step)) / (2 * step)

        return (4 * central(h / 2) - central(h)) / 3

    @pytest.mark.parametrize("n", [40, 100])
    def test_exact_qfi_matches_richardson_fd(self, n):
        oc = math.cos(2 * PI8)
        for frac in (0.1, 0.5, 0.9, 1.0, 1.5, 2.0):
            params = ModelParams(n, frac * oc, theta=PI8)
            gen = build_generator(params)
            exact = spectral_qfi(gen.null_state, gen.state_derivative("omega"))
            numeric = spectral_qfi(gen.null_state, self.richardson(params, 1e-4 * oc))
            assert exact == pytest.approx(numeric, rel=1e-6), frac

    @pytest.mark.parametrize("omega", [0.05, 0.2])
    def test_sld_reproduces_exact_qfi_on_near_pure_states(self, omega):
        params = ModelParams(40, omega * math.cos(2 * PI8), theta=PI8)
        gen = build_generator(params)
        steady = gen.null_state
        assert steady.populations[1] < 1e-2  # ferromagnetic: nearly pure
        for name in ("omega", "theta"):
            drho = gen.state_derivative(name)
            lmat = sld(steady, drho)
            qfi = spectral_qfi(steady, drho)
            assert np.trace(steady.rho @ lmat @ lmat).real == pytest.approx(qfi, rel=1e-8)

    def test_fd_wrappers_share_the_exact_formulas(self):
        params = ModelParams(12, 0.3, theta=PI8)
        solver = steady_solver(params, "omega")
        step = default_fd_step(params, "omega")
        steady = solver(params.omega)
        drho = steady_derivative(solver, params.omega, step)
        szn = np.asarray(build_operators(params).sz) / params.s
        assert qfi_steady(solver, params.omega, step) == spectral_qfi(steady, drho)
        assert error_propagation(szn, solver, params.omega, step) == signal_bound(
            szn, steady.rho, drho
        )

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(ValidationError):
            build_generator(ModelParams(4, 0.2)).state_derivative("n_spins")


class TestQfiPerturbed:
    def test_rank_one_equals_four_variances(self):
        params = ModelParams(8, 0.0, theta=0.0)
        steady = solve_steady_state(build_generator(params))
        ops = build_operators(params)
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        for gen_mat in (np.asarray(ops.sx), mat + mat.conj().T):
            qfi = qfi_perturbed(steady, gen_mat)
            assert qfi == pytest.approx(4 * variance(gen_mat, steady.rho), rel=1e-8)

    def test_maximally_mixed_gives_zero(self):
        state = SteadyState.from_density(np.eye(7, dtype=complex) / 7)
        gen_mat = np.asarray(build_operators(ModelParams(6, 0.0)).sz)
        assert qfi_perturbed(state, gen_mat) == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_identity_shift(self):
        params = ModelParams(10, 0.4, theta=PI8)
        steady = solve_steady_state(build_generator(params))
        gen_mat = np.asarray(build_operators(params).sy)
        base = qfi_perturbed(steady, gen_mat)
        shifted = qfi_perturbed(steady, gen_mat + 3.7 * np.eye(11))
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_rejects_non_hermitian_generator(self):
        state = SteadyState.from_density(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValidationError):
            qfi_perturbed(state, np.array([[0, 1], [0, 0]], dtype=complex))


class TestSld:
    def test_definitional_consistency(self):
        params = ModelParams(10, 0.35, theta=PI8)
        solver = steady_solver(params, "omega")
        step = default_fd_step(params, "omega")
        steady = solver(params.omega)
        drho = steady_derivative(solver, params.omega, step)
        lmat = sld(steady, drho)
        assert np.abs(lmat - lmat.conj().T).max() < 1e-12
        assert abs(np.trace(steady.rho @ lmat)) < 1e-10
        qfi = qfi_steady(solver, params.omega, step=step)
        assert np.trace(steady.rho @ lmat @ lmat).real == pytest.approx(qfi, rel=1e-8)

    def test_sylvester_oracle_small_system(self):
        # dense oracle: solve rho L + L rho = 2 d(rho) directly
        params = ModelParams(2, 0.4, theta=PI8)
        solver = steady_solver(params, "omega")
        steady = solver(params.omega)
        drho = steady_derivative(solver, params.omega, 1e-4)
        lmat = sld(steady, drho)
        oracle = scipy.linalg.solve_sylvester(steady.rho, steady.rho, 2 * drho)
        np.testing.assert_allclose(lmat, oracle, atol=1e-8)

    def test_support_leak_warning(self):
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        state = SteadyState.from_density(np.outer(vec, vec.conj()))
        drho = np.zeros((4, 4), dtype=complex)
        drho[2, 3] = drho[3, 2] = 1.0  # weight entirely on the null block
        with pytest.warns(SupportLeakWarning):
            sld(state, drho)


class TestChiSquared:
    def test_value_and_product(self):
        assert chi_squared(200.0, 100) == pytest.approx(0.5)
        assert chi_squared(40.0, 10) * 40.0 == pytest.approx(10.0)

    def test_rejects_nonpositive_qfi(self):
        with pytest.raises(ValidationError):
            chi_squared(0.0, 10)

    def test_shot_noise_at_dark_pole(self):
        # undriven theta=0 steady state with a perpendicular generator
        # saturates the shot-noise limit exactly
        params = ModelParams(12, 0.0, theta=0.0)
        steady = solve_steady_state(build_generator(params))
        qfi = qfi_perturbed(steady, np.asarray(build_operators(params).sx))
        assert chi_squared(qfi, 12) == pytest.approx(1.0, abs=1e-6)


class TestXiSquared:
    def test_coherent_dark_state_is_unsqueezed(self):
        params = ModelParams(14, 0.0, theta=0.0)
        steady = solve_steady_state(build_generator(params))
        result = xi_squared(steady, params)
        assert result.value == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(result.mean_direction, [0.0, 0.0, -1.0], atol=1e-9)

    def test_ferromagnetic_phase_is_squeezed_along_x(self):
        oc = math.cos(2 * PI8)
        params = ModelParams(40, 0.5 * oc, theta=PI8)
        steady = solve_steady_state(build_generator(params))
        result = xi_squared(steady, params)
        assert result.value < 1.0
        alignment = abs(result.optimal_direction[0])
        assert alignment >= math.cos(math.radians(5.0))
        perp = np.dot(result.optimal_direction, result.mean_direction)
        assert abs(perp) < 1e-10
        # mean spin tilts in the y-z plane: n' ~ sqrt(1-M^2) y - M z
        m = math.sqrt(1 - 0.25)
        np.testing.assert_allclose(
            result.mean_direction, [0.0, math.sqrt(1 - m * m), -m], atol=0.05
        )

    def test_vanishing_mean_spin_is_flagged(self):
        params = ModelParams(6, 0.0, theta=0.0)
        state = SteadyState.from_density(np.eye(7, dtype=complex) / 7)
        with pytest.raises(ValidationError):
            xi_squared(state, params)


class TestStepAndSolverHelpers:
    def test_default_step_scales(self):
        params = ModelParams(10, 0.0, theta=PI8)
        assert default_fd_step(params, "omega") == pytest.approx(1e-4 * params.omega_c)
        theta_step = default_fd_step(ModelParams(10, 0.5, theta=PI8), "theta")
        assert theta_step == pytest.approx(1e-4 * math.cos(2 * PI8))

    def test_default_step_capped_near_critical(self):
        oc = math.cos(2 * PI8)
        params = ModelParams(10, 0.999 * oc, theta=PI8)
        assert default_fd_step(params, "omega") == pytest.approx(0.05 * 0.001 * oc, rel=1e-6)
        # the steady state depends on |omega|, so -omega gets the same cap
        mirror = ModelParams(10, -0.999 * oc, theta=PI8)
        assert default_fd_step(mirror, "omega") == default_fd_step(params, "omega")

    def test_steady_solver_varies_requested_parameter(self):
        params = ModelParams(6, 0.2, theta=PI8)
        by_theta = steady_solver(params, "theta")
        state = by_theta(0.1)
        direct = solve_steady_state(build_generator(ModelParams(6, 0.2, theta=0.1)))
        np.testing.assert_allclose(state.rho, direct.rho, atol=1e-12)
        with pytest.raises(ValidationError):
            steady_solver(params, "n_spins")

    def test_qcr_chain(self):
        # no observable beats the quantum bound: eprop^{-2} <= QFI
        params = ModelParams(30, 0.3, theta=PI8)
        solver = steady_solver(params, "omega")
        step = default_fd_step(params, "omega")
        qfi = qfi_steady(solver, params.omega, step=step)
        ops = build_operators(params)
        for op in (np.asarray(ops.sy) / params.s, np.asarray(ops.sz) / params.s):
            bound = error_propagation(op, solver, params.omega, step)
            assert bound ** -2 <= qfi * (1 + 1e-6)
