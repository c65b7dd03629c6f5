import logging
import math
import pickle

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import spincrit.liouvillian
from oracles import (
    dense_null_space,
    dense_null_steady,
    evolve_to_steady,
    lu_power_steady,
    parity_block_spectrum,
    relax,
    unpack,
)
from spincrit import (
    ConvergenceError,
    DegenerateSteadyStateError,
    ModelParams,
    SteadyState,
    ValidationError,
    build_generator,
    build_operators,
    liouvillian_spectrum,
    solve_steady_state,
    trace_distance,
)
from spincrit.liouvillian import slow_rate


def master_rhs(params, ops, rho):
    """Direct action of the master equation, independent of the
    Kronecker-product construction used by build_generator."""
    st = ops.s_theta
    std = st.conj().T
    rate = 1.0 / params.n_spins
    return -1j * params.omega * (ops.sx @ rho - rho @ ops.sx) + rate * (
        2 * st @ rho @ std - std @ st @ rho - rho @ std @ st
    )


def random_hermitian(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return mat + mat.conj().T


def random_density(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


class TestGenerator:
    def test_single_spin_decay_action(self):
        # by hand: 2 sm |up><up| sp - {sp sm, |up><up|} = 2|dn><dn| - 2|up><up|
        gen = build_generator(ModelParams(1, 0.0, theta=0.0))
        excited = np.array([[0, 0], [0, 1]], dtype=complex)
        expected = np.array([[2, 0], [0, -2]], dtype=complex)
        np.testing.assert_allclose(gen.apply(excited), expected, atol=1e-14)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(1, 0.0, theta=0.0),
            ModelParams(4, 0.3, theta=math.pi / 8),
            ModelParams(6, 0.7 / 2.3, theta=0.5),
            ModelParams(3, 0.0, theta=math.pi / 4),
        ],
    )
    def test_matches_direct_master_equation_action(self, params):
        gen = build_generator(params)
        ops = build_operators(params)
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_hermitian(rng, params.dimension)
            np.testing.assert_allclose(
                gen.apply(rho), master_rhs(params, ops, rho), atol=1e-12 * np.abs(rho).max()
            )

    def test_dark_state_is_annihilated(self):
        for n in (1, 4, 9):
            gen = build_generator(ModelParams(n, 0.0, theta=0.0))
            rho = np.zeros((n + 1, n + 1), dtype=complex)
            rho[0, 0] = 1.0
            assert np.abs(gen.apply(rho)).max() < 1e-14

    def test_trace_and_hermiticity_preservation(self):
        # the adjoint identity L(rho')' = L(rho) must hold for general
        # (non-Hermitian) inputs, not just for density matrices
        gen = build_generator(ModelParams(8, 0.4, theta=math.pi / 8))
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            out = gen.apply(rho)
            assert abs(np.trace(out)) <= 1e-10 * np.linalg.norm(rho)
            assert np.abs(gen.apply(rho.conj().T).conj().T - out).max() <= 1e-10 * np.linalg.norm(rho)


class TestRealCoordinates:
    def test_pack_unpack_round_trip(self):
        x = random_hermitian(np.random.default_rng(4), 7)
        packed = spincrit.liouvillian._pack(x)
        assert packed.dtype == np.float64
        np.testing.assert_array_equal(unpack(packed, 7), x)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_real_form_has_the_spectrum_of_l(self, n):
        gen = build_generator(ModelParams(n, 0.3, theta=0.35))
        to_vec, to_real = spincrit.liouvillian._hermitian_coordinates(gen.dimension)
        real_form = (to_real @ gen.matrix @ to_vec).toarray()
        assert np.abs(real_form.imag).max() == 0.0
        ours = scipy.linalg.eigvals(real_form.real)
        dense = scipy.linalg.eigvals(gen.matrix.toarray())
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(ours[:, None] - dense[None, :]))
        assert np.abs(ours[rows] - dense[cols]).max() <= 1e-10

    def test_lu_solves_in_real_arithmetic(self):
        gen = build_generator(ModelParams(6, 0.3, theta=0.35))
        assert gen.lu.solve(np.ones(gen.dimension**2)).dtype == np.float64


class TestSteadyState:
    def test_undriven_dark_state(self):
        params = ModelParams(10, 0.0, theta=0.0)
        steady = solve_steady_state(build_generator(params))
        assert steady.rho[0, 0].real == pytest.approx(1.0, abs=1e-10)
        assert steady.purity == pytest.approx(1.0, abs=1e-10)
        # undriven theta=0 steady state is diagonal in the Dicke basis
        off = steady.rho - np.diag(np.diag(steady.rho))
        assert np.abs(off).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 6, 14])
    def test_invariants(self, n):
        params = ModelParams(n, 0.45 / 1.3, theta=math.pi / 8)
        steady = solve_steady_state(build_generator(params))
        assert abs(np.trace(steady.rho) - 1.0) <= 1e-10
        assert np.abs(steady.rho - steady.rho.conj().T).max() <= 1e-10
        assert steady.populations.min() >= 0.0
        assert steady.populations.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(steady.populations) <= 0)
        assert steady.residual <= 1e-9

    def test_dense_null_oracle_at_n2(self):
        # brute-force oracle: assemble the 9x9 superoperator column by
        # column from the direct master-equation action and take its SVD
        # null vector
        params = ModelParams(2, 0.37, theta=math.pi / 8)
        ops = build_operators(params)
        cols = []
        for j in range(9):
            basis_mat = np.zeros((3, 3), dtype=complex)
            basis_mat[j // 3, j % 3] = 1.0
            cols.append(master_rhs(params, ops, basis_mat).reshape(-1))
        super_op = np.column_stack(cols)
        _, svals, vh = np.linalg.svd(super_op)
        assert svals[-1] < 1e-12 and svals[-2] > 1e-6
        rho_oracle = vh[-1].conj().reshape(3, 3)
        rho_oracle = (rho_oracle + rho_oracle.conj().T) / 2
        rho_oracle /= np.trace(rho_oracle).real

        steady = solve_steady_state(build_generator(params))
        assert trace_distance(steady.rho, rho_oracle) < 1e-10

    def test_closed_form_and_dense_null_agree(self):
        gen = build_generator(ModelParams(12, 0.3, theta=0.35))
        steady = solve_steady_state(gen)
        assert (steady.method, steady.iterations) == ("closed_form", 0)
        assert trace_distance(steady.rho, dense_null_steady(gen)) < 1e-9

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 8, 1.0])
    def test_closed_form_matches_lu_power_oracle(self, n, theta):
        omega_c = abs(math.cos(2 * theta))
        for frac in (0.0, 0.5, 0.99, 1.5):
            gen = build_generator(ModelParams(n, frac * omega_c, theta=theta))
            assert trace_distance(gen.null_state.rho, lu_power_steady(gen)) <= 1e-10, frac

    @pytest.mark.parametrize(
        "n,omega,theta", [(100, 1e4, 0.0), (100, 1e4, math.pi / 8), (10, 1e5, 0.0)]
    )
    def test_refined_closed_form_holds_at_large_drives(self, n, omega, theta):
        # without the refinement step the residual of these states was
        # 1.3e-10 to 2.3e-10, above TOL, from round-off alone
        gen = build_generator(ModelParams(n, omega, theta=theta))
        steady = solve_steady_state(gen)
        assert steady.residual <= spincrit.liouvillian.TOL
        assert trace_distance(steady.rho, lu_power_steady(gen)) <= 1e-10

    def test_evolve_path_agrees(self):
        gen = build_generator(ModelParams(8, 0.3, theta=math.pi / 8))
        assert trace_distance(solve_steady_state(gen).rho, evolve_to_steady(gen)) < 1e-7

    def test_degenerate_kernel_raises(self):
        # theta = pi/4 makes the jump operator proportional to Sx, so
        # every function of Sx is steady: an (N+1)-dimensional kernel
        params = ModelParams(6, 0.4, theta=math.pi / 4)
        gen = build_generator(params)
        with pytest.raises(DegenerateSteadyStateError):
            solve_steady_state(gen)
        assert len(dense_null_space(gen)) == params.dimension

    def test_probe_threshold_brackets_a_closing_gap(self):
        # near theta = pi/4 the gap closes: 6.5e-7 lies inside
        # DEGENERACY_TOL, 6.5e-5 outside it
        with pytest.raises(DegenerateSteadyStateError):
            solve_steady_state(build_generator(ModelParams(50, 0.3, theta=math.pi / 4 - 1e-3)))
        steady = solve_steady_state(build_generator(ModelParams(50, 0.3, theta=math.pi / 4 - 1e-2)))
        assert steady.residual <= 1e-9

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("omega", [0.0, 0.4])
    def test_quarter_angle_raises_at_both_parities(self, n, omega):
        # every function of Sx is steady, driven or not
        gen = build_generator(ModelParams(n, omega, theta=math.pi / 4))
        with pytest.raises(DegenerateSteadyStateError, match=r"lambda1\(W\) = .* below DEGENERACY_TOL"):
            solve_steady_state(gen)
        assert len(dense_null_space(gen)) == n + 1

    @pytest.mark.parametrize(
        "n,omega,rate",
        [(10, 0.3, 1.2944), (20, 0.3, 0.7783), (20, 1.0, 0.1509), (30, 0.3, 0.5366), (50, 0.3, 0.3254)],
    )
    def test_slow_rate_reproduces_measured_gaps(self, n, omega, rate):
        # rate: the dense (N <= 20) or Arnoldi gap over eps^2 at theta = pi/4 - 1e-3
        assert slow_rate(ModelParams(n, omega, theta=math.pi / 4)) == pytest.approx(rate, abs=1e-4)

    @pytest.mark.parametrize("n", [6, 7, 20])
    def test_slow_rate_is_the_undriven_gap_over_eps_squared(self, n):
        # at omega = 0 the rates out of m = 0 vanish one way (even N)
        params = ModelParams(n, 0.0, theta=math.pi / 4 - 1e-3)
        eps = math.cos(params.theta) - math.sin(params.theta)
        gap = np.sort(-np.linalg.eigvals(build_generator(params).matrix.toarray()).real)[1]
        assert gap / eps**2 == pytest.approx(slow_rate(params), rel=1e-4)

    def test_one_closed_form_per_generator(self, monkeypatch):
        calls = []
        finalize = spincrit.liouvillian._finalize

        def counted(rho, gen, method):
            calls.append(method)
            return finalize(rho, gen, method)

        monkeypatch.setattr(spincrit.liouvillian, "_finalize", counted)
        gen = build_generator(ModelParams(12, 0.3, theta=math.pi / 8))
        steady = gen.null_state
        assert "lu" not in vars(gen)
        assert solve_steady_state(gen) is steady
        assert "lu" not in vars(gen)
        liouvillian_spectrum(gen, k=2)
        assert calls == ["closed_form"]

    def test_from_density(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 5)
        state = SteadyState.from_density(rho)
        assert state.populations.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(state.populations) <= 0)
        rebuilt = (state.basis * state.populations) @ state.basis.conj().T
        assert trace_distance(rebuilt, rho) < 1e-10

    def test_non_convergence_raises_without_fallback(self, monkeypatch, caplog):
        # a residual above TOL is refused, not handed to another solver
        monkeypatch.setattr(spincrit.liouvillian, "TOL", 0.0)
        gen = build_generator(ModelParams(4, 0.3, theta=math.pi / 8))
        with caplog.at_level(logging.DEBUG, logger="spincrit"):
            with pytest.raises(ConvergenceError, match="residual .* above"):
                solve_steady_state(gen)
        assert caplog.records == []

    def test_failed_svd_is_a_convergence_error(self):
        # N*omega overflows, so A holds inf and nan; LinAlgError is a
        # ValueError, which the CLI would report as bad input
        with pytest.raises(ConvergenceError, match="SVD did not converge"):
            solve_steady_state(build_generator(ModelParams(4, 1e308)))

    def test_steady_state_pickles_without_lu(self):
        gen = build_generator(ModelParams(10, 0.3, theta=math.pi / 8))
        steady = solve_steady_state(gen)
        liouvillian_spectrum(gen, k=2)  # the gap factorizes L on the generator
        clone = pickle.loads(pickle.dumps(steady))
        np.testing.assert_array_equal(clone.rho, steady.rho)
        assert "lu" in vars(gen)
        with pytest.raises(TypeError):
            pickle.dumps(gen.lu)


class TestSpectrum:
    def test_single_spin_spectrum(self):
        # hand diagonalization: populations relax at 2*Gamma, coherences
        # at Gamma, plus the zero mode
        gen = build_generator(ModelParams(1, 0.0, theta=0.0))
        report = liouvillian_spectrum(gen, k=4)
        np.testing.assert_allclose(
            sorted(report.eigenvalues.real), [-2.0, -1.0, -1.0, 0.0], atol=1e-10
        )
        assert np.abs(report.eigenvalues.imag).max() < 1e-10
        assert report.gap == pytest.approx(1.0, abs=1e-10)

    def test_zero_mode_present(self):
        for params in (ModelParams(5, 0.4, theta=0.3), ModelParams(8, 0.9, theta=0.1)):
            gen = build_generator(params)
            report = liouvillian_spectrum(gen, k=3)
            assert abs(report.eigenvalues[0].real) <= 1e-9

    def test_gap_shrinks_with_n_at_critical(self):
        theta = math.pi / 8
        gaps = []
        for n in (8, 16, 32):
            params = ModelParams(n, math.cos(2 * theta), theta=theta)
            gaps.append(liouvillian_spectrum(build_generator(params), k=2).gap)
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_iterative_matches_dense(self):
        params = ModelParams(12, 0.4, theta=math.pi / 8)
        gen = build_generator(params)
        dense = scipy.linalg.eigvals(gen.matrix.toarray())
        dense = dense[np.argsort(-dense.real)][:4]
        iterative = liouvillian_spectrum(gen, k=4)
        assert iterative.method == "arnoldi"
        np.testing.assert_allclose(iterative.eigenvalues.real, dense.real, atol=1e-8)
        np.testing.assert_allclose(
            np.abs(iterative.eigenvalues.imag), np.abs(dense.imag), atol=1e-8
        )

    def test_k_validation(self):
        gen = build_generator(ModelParams(2, 0.1))
        with pytest.raises(ValidationError):
            liouvillian_spectrum(gen, k=1)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 20, 30])
    @pytest.mark.parametrize("theta", [0.0, 0.2, math.pi / 8, 0.6])
    def test_deflated_gap_matches_dense_oracle(self, n, theta):
        omega_c = math.cos(2 * theta)
        for frac in (0.05, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0):
            gen = build_generator(ModelParams(n, frac * omega_c, theta=theta))
            oracle = -sorted(parity_block_spectrum(gen).real)[-2]
            report = liouvillian_spectrum(gen, k=2)
            assert report.method == "arnoldi"
            assert report.gap == pytest.approx(oracle, rel=1e-8), frac

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_parity_block_oracle_has_the_spectrum_of_l(self, n):
        gen = build_generator(ModelParams(n, 0.3, theta=0.35))
        blocks = parity_block_spectrum(gen)
        dense = scipy.linalg.eigvals(gen.matrix.toarray())
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(blocks[:, None] - dense[None, :]))
        assert len(blocks) == len(dense)
        assert np.abs(blocks[rows] - dense[cols]).max() <= 1e-10

    def test_degenerate_kernel_gap_closes_without_raising(self):
        # jump operator proportional to Sx: every Sx-diagonal state is steady
        gen = build_generator(ModelParams(20, 0.0, theta=math.pi / 4))
        report = liouvillian_spectrum(gen, k=2)
        assert report.method == "arnoldi"
        assert abs(report.gap) <= 1e-10

    def test_gap_is_deterministic_for_a_seed(self):
        gen = build_generator(ModelParams(30, 0.35, theta=math.pi / 8))
        first = liouvillian_spectrum(gen, k=2, seed=3).gap
        second = liouvillian_spectrum(gen, k=2, seed=3).gap
        assert first == second

    def test_gap_reuses_the_steady_state_factor(self):
        params = ModelParams(30, 0.35, theta=math.pi / 8)
        gen = build_generator(params)
        steady = solve_steady_state(gen)
        lu = gen.lu
        shared = liouvillian_spectrum(gen, k=2)
        assert gen.lu is lu
        assert gen.null_state is steady
        alone = liouvillian_spectrum(build_generator(params), k=2)
        assert shared.gap == pytest.approx(alone.gap, rel=1e-12)


class TestEvolve:
    def test_two_spin_superradiant_cascade(self):
        # closed-form cascade from the fully excited state at theta=0:
        # p(+1) = e^{-2 G t}, p(0) = 2 G t e^{-2 G t}, so
        # <S_z>(t) = (2 + 2 G t) e^{-2 G t} - 1
        params = ModelParams(2, 0.0, theta=0.0)
        gen = build_generator(params)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[2, 2] = 1.0
        times = np.linspace(0.0, 3.0, 16)
        _, states = relax(gen, rho0, 3.0, t_eval=times, rtol=1e-10, atol=1e-14)
        sz = build_operators(params).sz
        measured = np.array([np.trace(sz @ state).real for state in states])
        expected = (2 + 2 * times) * np.exp(-2 * times) - 1
        np.testing.assert_allclose(measured, expected, atol=1e-8)
        assert np.all(np.diff(measured) < 0)

    def test_relaxes_to_steady_state(self):
        params = ModelParams(8, 0.35, theta=math.pi / 8)
        gen = build_generator(params)
        steady = solve_steady_state(gen)
        rho0 = np.eye(9, dtype=complex) / 9
        final = relax(gen, rho0, 120.0, rtol=1e-9, atol=1e-13)[1][-1]
        assert trace_distance(final, steady.rho) < 1e-6

    def test_uniqueness_across_initial_states(self):
        rng = np.random.default_rng(17)
        params = ModelParams(8, 0.3, theta=math.pi / 8)
        gen = build_generator(params)
        finals = [
            relax(gen, random_density(rng, 9), 150.0, rtol=1e-9, atol=1e-13)[1][-1]
            for _ in range(3)
        ]
        assert max(trace_distance(f, finals[0]) for f in finals[1:]) < 1e-6

    def test_positivity_along_trajectory(self):
        params = ModelParams(6, 0.5, theta=0.3)
        gen = build_generator(params)
        rho0 = np.zeros((7, 7), dtype=complex)
        rho0[6, 6] = 1.0
        _, states = relax(gen, rho0, 10.0, t_eval=np.linspace(0, 10, 8))
        for state in states:
            assert np.linalg.eigvalsh((state + state.conj().T) / 2).min() >= -1e-9
