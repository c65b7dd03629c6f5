import argparse
import gc
import json
import math
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg

import spincrit.harness
import spincrit.liouvillian

from spincrit import (
    ConvergenceError,
    DegenerateSteadyStateError,
    ModelParams,
    SweepSpec,
    ValidationError,
    fit_power_law,
    run_selftest,
    run_sweep,
)
from spincrit.cli import build_parser, cli_main
from spincrit.harness import (
    KNOWN_TASKS,
    TASK_COLUMNS,
    _BLAS_THREAD_VARS,
    _check_uniqueness,
    _worker_pool,
    compute_report,
    csv_columns,
    render_sweep,
    resolve_generator,
    row_error,
)
from spincrit.metrology import spectral_qfi

PI8 = math.pi / 8


def small_spec(**overrides):
    base = dict(
        n_spins=8,
        theta=PI8,
        axis="omega",
        values=(0.1, 0.3),
        tasks=("signals",),
        jobs=1,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestFitPowerLaw:
    def test_identity_fit(self):
        fit = fit_power_law([1, 2, 3, 4], [1, 2, 3, 4])
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 4
        assert fit.window == (1.0, 4.0)

    def test_recovers_synthetic_law(self):
        xs = np.array([10, 20, 40, 80, 160], dtype=float)
        ys = 3.7 * xs**-2.5
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(-2.5, abs=1e-10)
        assert fit.prefactor == pytest.approx(3.7, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_power_law([1, 2, 3], [1, 2, 3])
        with pytest.raises(ValidationError):
            fit_power_law([1, 2, 3, 4], [1, 2, -3, 4])


class TestSweepValidation:
    def test_empty_tasks(self):
        with pytest.raises(ValidationError):
            run_sweep(small_spec(tasks=()))

    def test_unknown_task(self):
        with pytest.raises(ValidationError):
            run_sweep(small_spec(tasks=("signals", "bogus")))

    def test_non_monotone_values(self):
        with pytest.raises(ValidationError):
            run_sweep(small_spec(values=(0.1, 0.3, 0.2)))

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            run_sweep(small_spec(axis="phi"))

    def test_unknown_format(self):
        spec = small_spec(values=(0.2,))
        with pytest.raises(ValidationError):
            render_sweep(run_sweep(spec), spec, "xml")


class TestRunSweep:
    def test_signals_and_meanfield_columns(self):
        spec = small_spec(values=(0.1, 0.3, 0.75), tasks=("signals", "meanfield"))
        rows = run_sweep(spec)
        assert len(rows) == 3
        for row in rows[:2]:
            assert "error" not in row
            assert row["sz"] == pytest.approx(row["mf_sz"], abs=0.6)
        # last point is past the critical coupling: exact columns remain,
        # the expansion only pins the zero order parameter
        thermal = rows[2]
        assert "error" not in thermal
        assert thermal["sz"] is not None
        assert thermal["mf_m"] == 0.0
        assert "mf_var_sz" not in thermal

    def test_rows_in_grid_order_and_deterministic(self):
        spec = small_spec(values=(0.05, 0.2, 0.35), tasks=("signals",))
        text1 = render_sweep(run_sweep(spec), spec, "csv", no_meta=True)
        text2 = render_sweep(run_sweep(spec), spec, "csv", no_meta=True)
        assert text1 == text2
        omegas = [line.split(",")[1] for line in text1.splitlines()[1:]]
        assert omegas == ["0.05", "0.2", "0.35"]

    def test_jobs_do_not_change_rows(self):
        spec = small_spec(values=(0.1, 0.25, 0.4), tasks=("signals", "meanfield"))
        serial = render_sweep(run_sweep(spec), spec, "csv", no_meta=True)
        parallel_spec = replace(spec, jobs=2)
        parallel = render_sweep(run_sweep(parallel_spec), parallel_spec, "csv", no_meta=True)
        assert serial == parallel

    def test_pool_workers_share_blas_threads(self, monkeypatch):
        for name in _BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        with _worker_pool(2) as pool:
            seen = dict(zip(_BLAS_THREAD_VARS, pool.map(os.getenv, _BLAS_THREAD_VARS)))
        limit = str(max(1, os.cpu_count() // 2))
        assert seen == {
            "OPENBLAS_NUM_THREADS": limit,
            "OMP_NUM_THREADS": "3",
            "MKL_NUM_THREADS": limit,
        }
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert "MKL_NUM_THREADS" not in os.environ

    def test_pool_workers_keep_user_set_blas_threads(self, monkeypatch):
        user = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}
        for name, value in user.items():
            monkeypatch.setenv(name, value)
        with _worker_pool(2) as pool:
            seen = dict(zip(_BLAS_THREAD_VARS, pool.map(os.getenv, _BLAS_THREAD_VARS)))
        assert seen == user
        assert {name: os.environ.get(name) for name in _BLAS_THREAD_VARS} == user

    def test_one_factorization_per_row(self, monkeypatch):
        # the steady state and d(rho)/d(omega) come from one SVD; only
        # the gap factorizes L, once per row
        splu_calls, eigs_kwargs = [], []
        splu, eigs = spincrit.liouvillian.splu, scipy.sparse.linalg.eigs

        def counting_splu(*args, **kwargs):
            splu_calls.append(1)
            return splu(*args, **kwargs)

        def recording_eigs(*args, **kwargs):
            eigs_kwargs.append(kwargs)
            return eigs(*args, **kwargs)

        monkeypatch.setattr(spincrit.liouvillian, "splu", counting_splu)
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", recording_eigs)
        spec = small_spec(n_spins=20, values=(0.35,), tasks=KNOWN_TASKS)
        report = compute_report(ModelParams(20, 0.35, theta=PI8), spec)
        assert report["gap"] > 0 and report["qfi_steady"] > 0 and report["eprop_sz"] > 0
        assert len(splu_calls) == 1
        assert len(eigs_kwargs) == 1 and "sigma" not in eigs_kwargs[0]

    def test_rows_without_gap_build_no_lu(self, monkeypatch):
        # uniqueness is decided without L, so only the gap factorizes it
        splu_calls, splu = [], spincrit.liouvillian.splu

        def counting_splu(*args, **kwargs):
            splu_calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spincrit.liouvillian, "splu", counting_splu)
        spec = small_spec(n_spins=20, values=(0.35,), tasks=("signals", "meanfield"))
        report = compute_report(ModelParams(20, 0.35, theta=PI8), spec)
        assert "var_sz" in report and "mf_m" in report
        assert splu_calls == []

    def test_row_lu_freed_before_the_next_row(self, monkeypatch):
        splu = spincrit.liouvillian.splu
        made, alive_at_call = [], []

        class Factor:  # SuperLU itself takes no weak references
            def __init__(self, lu):
                self.solve = lu.solve

        def tracked_splu(*args, **kwargs):
            gc.collect()
            alive_at_call.append(sum(ref() is not None for ref in made))
            factor = Factor(splu(*args, **kwargs))
            made.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(spincrit.liouvillian, "splu", tracked_splu)
        rows = run_sweep(small_spec(n_spins=20, values=(0.3, 0.35, 0.4), tasks=KNOWN_TASKS))
        assert all("error" not in row for row in rows)
        assert alive_at_call == [0, 0, 0]

    def test_negative_omega_mirrors_positive_omega(self):
        # rho(-omega) = conj rho(omega): only <Sy> and the drive flip sign
        tasks = ("signals", "meanfield", "qfi_perturbed")
        below, above = run_sweep(small_spec(values=(-0.5, 0.5), tasks=tasks))
        assert set(below) == set(above) and "error" not in below
        flipped = {"omega_over_gamma", "sy", "mf_sy"}
        for col, value in above.items():
            mirrored = -below[col] if col in flipped else below[col]
            if col.startswith("mf_"):
                assert mirrored == value, col
            else:
                assert mirrored == pytest.approx(value, rel=1e-12, abs=1e-12), col

    def test_negative_omega_beyond_critical_is_thermal(self):
        # omega -> -omega is a symmetry, so M = 0 for omega <= -omega_c too
        spec = small_spec(n_spins=4, values=(-2.0,), tasks=("signals", "meanfield"))
        row = run_sweep(spec)[0]
        assert "error" not in row
        assert row["mf_m"] == 0.0

    def test_per_row_failure_recorded(self):
        # second theta value is outside [0, pi/2) and must fail alone
        spec = small_spec(axis="theta", values=(0.2, 1.6), tasks=("signals",))
        rows = run_sweep(spec)
        assert "error" not in rows[0]
        assert "theta" in rows[1]["error"]
        assert "sz" not in rows[1]

    def test_all_rows_failed_raises(self):
        spec = small_spec(axis="theta", values=(1.6, 1.65), tasks=("signals",))
        with pytest.raises(ValidationError, match="all 2 sweep rows failed; first error: "):
            run_sweep(spec)

    def test_all_rows_failed_in_the_solver_raises_the_solver_error(self):
        spec = small_spec(n_spins=6, theta=math.pi / 4, tasks=("signals",))
        with pytest.raises(DegenerateSteadyStateError):
            run_sweep(spec)

    def test_row_error_takes_the_class_its_cell_names(self):
        rows = [{"error": "ConvergenceError: slow"}, {"error": "LinAlgError: singular"}]
        error = row_error(rows, "2 rows failed")
        assert type(error) is ConvergenceError
        assert str(error) == "2 rows failed: ConvergenceError: slow"
        # any other class _run_point caught is a ValueError, which exits 1
        assert type(row_error(rows[1:], "1 row failed")) is ValueError

    def test_full_task_set(self):
        spec = small_spec(
            values=(0.25,),
            tasks=("signals", "bounds", "qfi_steady", "qfi_perturbed", "chi2", "xi2", "gap"),
        )
        row = run_sweep(spec)[0]
        assert "error" not in row
        assert row["qfi_steady"] > 0 and row["qfi_perturbed"] > 0
        assert row["chi2_steady"] == pytest.approx(8 / row["qfi_steady"])
        assert row["chi2_perturbed"] == pytest.approx(8 / row["qfi_perturbed"])
        assert row["xi2"] is not None and row["gap"] > 0
        assert row["eprop_sy"] > 0 and row["eprop_sz"] > 0
        assert set(row) == set(csv_columns(spec.tasks)) - {"error"}

    def test_chi2_task_implies_a_qfi(self):
        spec = small_spec(values=(0.2,), tasks=("chi2",))
        row = run_sweep(spec)[0]
        assert row["qfi_perturbed"] is not None
        assert row["chi2_perturbed"] is not None

    def test_n_spins_axis(self):
        spec = small_spec(axis="n_spins", values=(4, 8), omega=0.2, tasks=("signals",))
        rows = run_sweep(spec)
        assert [row["n"] for row in rows] == [4, 8]


class TestOutput:
    def test_csv_schema_depends_only_on_tasks(self):
        cols = csv_columns(("signals", "gap"))
        assert cols[:3] == ["n", "omega_over_gamma", "theta"]
        assert cols[-1] == "error"
        assert "gap" in cols and "qfi_steady" not in cols
        # order of the task list does not matter
        assert csv_columns(("gap", "signals")) == cols
        xi_cols = csv_columns(("xi2",))
        assert xi_cols[3:7] == ["xi2", "xi2_nx", "xi2_ny", "xi2_nz"]

    def test_csv_values_format(self):
        spec = small_spec(values=(1.0 / 3.0,), tasks=("signals",))
        text = render_sweep(run_sweep(spec), spec, "csv", no_meta=True)
        header, row = text.splitlines()
        assert header.startswith("n,omega_over_gamma,theta,")
        assert row.split(",")[1] == "0.333333333333"  # 12 significant digits

    def test_meta_line_toggle(self):
        spec = small_spec(values=(0.2,), tasks=("signals",))
        rows = run_sweep(spec)
        with_meta = render_sweep(rows, spec, "csv", no_meta=False)
        without = render_sweep(rows, spec, "csv", no_meta=True)
        assert with_meta.startswith("# spincrit sweep")
        assert without.splitlines()[0].startswith("n,")

    def test_json_round_trip(self):
        spec = small_spec(values=(0.15, 0.3), tasks=("signals", "meanfield"))
        rows = run_sweep(spec)
        payload = json.loads(render_sweep(rows, spec, "json"))
        assert len(payload) == 2
        assert payload[0]["n"] == 8
        assert payload[0]["sz"] == pytest.approx(payload[0]["mf_sz"], abs=0.6)
        assert payload[0]["error"] is None
        # full precision, which the CSV rounds to 12 significant digits
        assert payload[1]["sz"] == rows[1]["sz"]
        csv_row = render_sweep(rows, spec, "csv", no_meta=True).splitlines()[2].split(",")
        assert f"{payload[1]['sz']:.12g}" == csv_row[list(payload[1]).index("sz")]

    def test_json_serializes_infinities_as_strings(self):
        spec = small_spec(values=(0.0,), tasks=("bounds",))
        report = {"n": 8, "omega_over_gamma": 0.0, "theta": PI8, "eprop_sy": 0.5, "eprop_sz": math.inf}
        payload = json.loads(render_sweep([report], spec, "json"))
        assert payload[0]["eprop_sz"] == "inf"
        assert payload[0]["eprop_sy"] == 0.5


class TestResolveGenerator:
    def test_named_generators(self):
        params = ModelParams(4, 0.2, theta=PI8)
        from spincrit import build_operators

        ops = build_operators(params)
        np.testing.assert_allclose(resolve_generator("sz", params), ops.sz)
        mat = resolve_generator("x", params)
        np.testing.assert_allclose(mat, ops.sx)

    def test_optimal_uses_mean_field_direction(self):
        params = ModelParams(4, 0.5 * math.cos(2 * PI8), theta=PI8)
        from spincrit import build_operators

        ops = build_operators(params)
        m = math.sqrt(1 - 0.25)
        expected = m * ops.sy + math.sqrt(1 - m * m) * ops.sz
        mat = resolve_generator("optimal", params)
        np.testing.assert_allclose(mat, expected, atol=1e-12)

    def test_optimal_degrades_to_sz_at_critical(self):
        params = ModelParams(4, math.cos(2 * PI8), theta=PI8)
        from spincrit import build_operators

        mat = resolve_generator("optimal", params)
        np.testing.assert_allclose(mat, build_operators(params).sz, atol=1e-12)

    def test_custom_direction_normalized(self):
        params = ModelParams(4, 0.2, theta=PI8)
        mat = resolve_generator("0,3,4", params)
        from spincrit import build_operators

        ops = build_operators(params)
        np.testing.assert_allclose(mat, 0.6 * ops.sy + 0.8 * ops.sz, atol=1e-12)
        # the norm of huge components must not overflow
        np.testing.assert_allclose(resolve_generator("0,3e200,4e200", params), mat, atol=1e-12)

    def test_unknown_generator(self):
        with pytest.raises(ValidationError):
            resolve_generator("bogus", ModelParams(4, 0.2))


class TestSelftest:
    def test_all_checks_pass(self):
        checks = run_selftest(seed=0)
        failed = [c.name for c in checks if not c.passed]
        assert failed == []
        names = {c.name for c in checks}
        assert "su2_algebra" in names
        assert "sweep_determinism_across_jobs" in names
        assert "degenerate_kernel_detection" in names

    def test_uniqueness_check_fails_on_a_degenerate_generator(self, monkeypatch):
        # theta = pi/4 gives L one zero mode per Sx eigenstate
        build = spincrit.liouvillian.build_generator
        monkeypatch.setattr(
            spincrit.harness,
            "build_generator",
            lambda params: build(replace(params, theta=math.pi / 4)),
        )
        check = _check_uniqueness(0)
        assert not check.passed
        assert check.detail.startswith("21 zero mode(s)")


#: flags of every subcommand that runs the solver
SOLVER_FLAGS = {
    "--omega", "--omega-frac", "--gamma", "--theta", "--lambda", "--generator",
    "--eig-floor", "--seed", "--out", "--config",
}
#: the flags each subcommand reads; every other flag is an unknown argument
SUBCOMMAND_FLAGS = {
    "steady": SOLVER_FLAGS | {"--n", "--tasks", "--format", "--no-meta"},
    "sweep": SOLVER_FLAGS | {
        "--n", "--axis", "--start", "--stop", "--points", "--values", "--tasks",
        "--format", "--jobs", "--no-meta",
    },
    "scaling": SOLVER_FLAGS | {"--n-list", "--at-critical", "--quantity", "--jobs"},
    "meanfield": {
        "--n", "--omega", "--omega-frac", "--gamma", "--theta", "--format", "--out", "--config",
    },
    "selftest": {"--seed", "--out", "--config"},
}
DROPPED_FLAGS = [
    ("steady", "--jobs"),
    # the derivative is exact, so no command takes a finite-difference step
    *((command, "--step") for command in ("steady", "sweep", "scaling")),
    *(("scaling", flag) for flag in ("--n", "--format", "--no-meta")),
    *(("meanfield", flag) for flag in (
        "--lambda", "--generator", "--step", "--eig-floor", "--jobs", "--seed", "--no-meta",
    )),
    *(("selftest", flag) for flag in (
        "--n", "--omega", "--omega-frac", "--gamma", "--theta", "--lambda", "--generator",
        "--step", "--eig-floor", "--format", "--jobs", "--no-meta",
    )),
]
#: a command line each subcommand runs cleanly without the dropped flag
MINIMAL_ARGV = {
    "steady": ["steady", "--n", "4", "--omega", "0.1", "--tasks", "signals"],
    "sweep": ["sweep", "--n", "4", "--values", "0.1", "--tasks", "signals"],
    "scaling": ["scaling", "--n-list", "4,6,8,10", "--at-critical", "--theta", "0.3927"],
    "meanfield": ["meanfield", "--n", "10", "--omega", "0.3"],
    "selftest": ["selftest"],
}


def _subcommand_parsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestCli:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        taken = {
            name: {a.option_strings[0] for a in parser._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, parser in _subcommand_parsers().items()
        }
        assert taken == SUBCOMMAND_FLAGS
        assert sum(map(len, taken.values())) == 59
        assert len(DROPPED_FLAGS) == 26

    @pytest.mark.parametrize("command,flag", DROPPED_FLAGS)
    def test_dropped_flag_is_an_unknown_argument(self, capsys, command, flag):
        value = [] if flag == "--no-meta" else ["1"]
        assert cli_main(MINIMAL_ARGV[command] + [flag, *value]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_each_subcommand_prints_its_usage_and_help(self, command):
        parser = _subcommand_parsers()[command]
        assert parser.format_usage().startswith(f"usage: spincrit {command}")
        assert "--config" in parser.format_help()

    def test_bad_selftest_seed_names_the_flag(self, capsys):
        assert cli_main(["selftest", "--seed", "x"]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: invalid int value: 'x'" in err
        assert "usage: spincrit selftest" in err

    def test_abbreviated_flag_is_an_unknown_argument(self, capsys):
        # full names only: a prefix could silently pick another flag,
        # as the dropped `scaling --n` would pick --n-list
        assert cli_main(["sweep", "--n", "4", "--val", "0.1"]) == 1
        assert "unrecognized arguments: --val 0.1" in capsys.readouterr().err

    def test_stray_flag_is_reported_with_the_subcommand_usage(self, capsys):
        assert cli_main(MINIMAL_ARGV["steady"] + ["--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --jobs 2\nusage: spincrit steady")
        assert "--eig-floor" in err

    def test_config_key_a_subcommand_does_not_take_exits_one(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("jobs = 2\n")
        assert cli_main(MINIMAL_ARGV["steady"] + ["--config", str(config)]) == 1
        assert "unrecognized arguments: --jobs=2" in capsys.readouterr().err

    @pytest.mark.parametrize("value, meta", [("false", True), ("False", True), ("true", False)])
    def test_config_switch_set_to_false_stays_off(self, tmp_path, capsys, value, meta):
        config = tmp_path / "run.cfg"
        config.write_text(f"no-meta = {value}\n")
        argv = ["steady", "--n", "4", "--omega", "0.1", "--tasks", "signals"]
        assert cli_main(argv + ["--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("# spincrit sweep") == meta

    def test_config_list_may_start_with_a_minus_sign(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("values = -0.5,0.5\nno-meta\n")
        assert cli_main(["sweep", "--n", "4", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["-0.5", "0.5"]

    @pytest.mark.parametrize("drive", [["--omega", "0.2"], ["--omega-frac", "0.5"]])
    def test_at_critical_does_not_overwrite_a_given_drive(self, capsys, drive):
        argv = ["scaling", "--n-list", "4,6,8,10", "--at-critical", "--theta", "0.3927"]
        assert cli_main(argv + drive) == 1
        assert f"argument {drive[0]}: not allowed with argument --at-critical" in (
            capsys.readouterr().err
        )

    def test_list_flag_errors_name_the_flag(self, capsys):
        argv = ["scaling", "--n-list", "4.5,6,8,10", "--at-critical", "--theta", "0.3927"]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "error: argument --n-list: expected comma-separated integers, got '4.5,6,8,10'"
        )
        assert cli_main(["sweep", "--n", "4", "--values", "0.1,abc"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: argument --values: expected comma-separated numbers, got '0.1,abc'"
        )

    def test_meanfield_text_output(self, capsys):
        code = cli_main(
            ["meanfield", "--gamma", "1", "--theta", "0.3926990816987241", "--omega", "0.5", "--n", "100"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "m = 0.707106781186" in out
        assert "r = 0.534799996" in out
        assert "bound_omega = 0.0923879532" in out

    @pytest.mark.parametrize("omega", [-0.5, 0.3])
    def test_meanfield_command_and_task_agree(self, capsys, omega):
        argv = ["meanfield", "--n", "100", "--omega", str(omega), "--theta", "0.3927",
                "--format", "json"]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        spec = small_spec(n_spins=100, theta=0.3927, values=(omega,), tasks=("meanfield",))
        (row,) = run_sweep(spec)
        for col in TASK_COLUMNS["meanfield"]:
            assert row[col] == payload[col[3:]], col

    def test_meanfield_command_refuses_the_thermal_phase(self, capsys):
        assert cli_main(["meanfield", "--n", "100", "--omega", "0.9", "--theta", "0.3927"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mean-field valid in ferromagnetic phase")

    def test_meanfield_at_negative_omega_mirrors_positive_omega(self, capsys):
        # rho(-omega) = conj rho(omega): only <Sy> and the drive flip sign
        payloads = []
        for omega in ("0.5", "-0.5"):
            argv = ["meanfield", "--theta", "0.3927", "--omega", omega, "--n", "100",
                    "--format", "json"]
            assert cli_main(argv) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        above, below = payloads
        assert below["omega_over_gamma"] == -0.5 and below["sy"] == -above["sy"] != 0
        assert below["bound_theta"] is not None and below["optimal_theta"] is not None
        for key in ("omega_over_gamma", "sy"):
            del above[key], below[key]
        assert below == above

    def test_steady_dark_state(self, capsys):
        code = cli_main(
            ["steady", "--n", "1", "--omega", "0", "--theta", "0", "--gamma", "1",
             "--tasks", "signals", "--no-meta"]
        )
        out = capsys.readouterr().out
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["sz"]) == pytest.approx(-1.0, abs=1e-9)

    def test_sweep_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = cli_main(
            ["sweep", "--axis", "omega", "--values", "0.1,0.3", "--n", "6",
             "--theta", "0.3927", "--tasks", "signals", "--out", str(out_path), "--no-meta"]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("n,omega_over_gamma,theta,")
        assert len(lines) == 3

    def test_sweep_grid_flags(self, capsys):
        code = cli_main(
            ["sweep", "--axis", "omega", "--start", "0.1", "--stop", "0.3", "--points", "3",
             "--n", "4", "--theta", "0.3927", "--tasks", "signals", "--no-meta"]
        )
        out = capsys.readouterr().out
        assert code == 0
        omegas = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
        assert omegas == ["0.1", "0.2", "0.3"]

    def test_empty_task_list_rejected(self, capsys):
        code = cli_main(
            ["sweep", "--axis", "omega", "--values", "0.1", "--n", "4", "--tasks", " "]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["steady", "--badflag"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_grid_exits_one(self, capsys):
        assert cli_main(["sweep", "--axis", "omega", "--n", "4"]) == 1
        assert "sweep needs either" in capsys.readouterr().err
        for points in ("0", "-2"):
            argv = ["sweep", "--n", "4", "--start", "0.1", "--stop", "0.3", "--points", points]
            assert cli_main(argv) == 1
            assert "--points must be positive" in capsys.readouterr().err

    def test_unwritable_output_path_exits_one(self, capsys):
        code = cli_main(
            ["sweep", "--axis", "omega", "--values", "0.1", "--n", "4",
             "--theta", "0.3927", "--tasks", "signals",
             "--out", "/nonexistent-dir/rows.csv"]
        )
        assert code == 1
        assert "output path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--generator", "bogus"],
            ["--gamma", "0"],
            ["--eig-floor", "-1"],
            ["--gamma", "inf"],
            ["--gamma", "nan"],
            ["--generator", "0,0,0"],
            ["--gamma", "-1"],
            ["--eig-floor", "nan"],
            ["--eig-floor", "inf"],
        ],
    )
    def test_bad_input_exits_one_in_every_command(self, capsys, flag):
        tasks = "bounds,qfi_steady,qfi_perturbed"
        errors = []
        for argv in (
            ["steady", "--n", "4", "--omega", "0.1", "--tasks", tasks],
            ["sweep", "--n", "4", "--values", "0.1,0.2", "--tasks", tasks],
            ["scaling", "--n-list", "4,6,8,10"],
        ):
            assert cli_main(argv + flag) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: ")
        assert errors[1] == errors[0] and errors[2] == errors[0]

    @pytest.mark.parametrize("direction", ["x,y,z", "nan,0,1"])
    def test_bad_custom_generator_names_the_accepted_forms(self, capsys, direction):
        for argv in (
            ["steady", "--n", "4", "--omega", "0.1", "--tasks", "signals"],
            ["sweep", "--n", "4", "--values", "0.1,0.2", "--tasks", "signals"],
        ):
            assert cli_main(argv + ["--generator", direction]) == 1
            err = capsys.readouterr().err
            assert f"unknown generator {direction!r}; use sz | optimal | x | nx,ny,nz" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "6", "--theta", "2", "--values", "0.1,0.2", "--tasks", "signals"],
            ["sweep", "--n", "0", "--values", "0.1,0.2", "--tasks", "signals"],
            ["sweep", "--n", "3000", "--values", "0.1,0.2", "--tasks", "signals"],
            ["scaling", "--n-list", "4,6,8,10", "--omega", "0.2", "--theta", "2"],
            ["scaling", "--n-list", "4,6,8,3000", "--omega", "0.2", "--theta", "0.3"],
        ],
    )
    def test_rows_failing_validation_exit_one(self, capsys, argv):
        # as steady does at one point: a failed row keeps its error's class
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and ": ValidationError: " in captured.err

    def test_sweep_rows_failing_in_the_solver_exit_two(self, capsys):
        argv = ["sweep", "--n", "6", "--theta", repr(math.pi / 4), "--values", "0.1,0.2",
                "--tasks", "signals"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "solver error: all 2 sweep rows failed; first error: DegenerateSteadyStateError: "
        )

    def test_solver_failure_exits_two(self, capsys):
        # theta = pi/4 has a degenerate kernel, a solver-level failure
        code = cli_main(
            ["steady", "--n", "6", "--omega", "0.4", "--theta", "0.7853981633974483",
             "--tasks", "signals"]
        )
        assert code == 2
        assert "solver error" in capsys.readouterr().err

    def test_omega_frac(self, capsys):
        code = cli_main(
            ["meanfield", "--theta", "0.3926990816987241", "--omega-frac", "0.5", "--n", "100",
             "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["omega_over_gamma"] == pytest.approx(0.5 * math.cos(2 * PI8))
        assert payload["chi2"] == pytest.approx(0.3587194676071504, rel=1e-9)

    def test_gamma_normalization(self, capsys):
        # omega/gamma is what matters; gamma is scaled out of the report
        code = cli_main(
            ["meanfield", "--gamma", "2", "--omega", "1.0", "--theta", "0.3926990816987241",
             "--n", "100", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["omega_over_gamma"] == pytest.approx(0.5)
        assert payload["m"] == pytest.approx(0.7071067811865476, rel=1e-9)

    @pytest.mark.parametrize(
        "command, grid",
        [
            ("steady", ["--tasks", "signals,bounds,qfi_steady,qfi_perturbed,chi2,xi2,gap"]),
            ("sweep", ["--axis", "theta", "--values", "0.1,0.3",
                       "--tasks", "signals,bounds,qfi_steady,gap,meanfield"]),
        ],
    )
    def test_gamma_enters_only_as_omega_over_gamma(self, capsys, command, grid):
        # below the CLI the collective rate is the unit: --gamma 2 --omega 0.7
        # is the point --omega 0.35
        outputs = []
        for drive in (["--gamma", "2", "--omega", "0.7"], ["--omega", "0.35"]):
            argv = [command, "--n", "8", "--theta", "0.3927", *drive, *grid, "--no-meta"]
            assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].split(",")[1] == "0.35"

    def test_mirror_rows_agree_next_to_the_critical_coupling(self, capsys):
        rows = []
        for frac in ("0.9999", "-0.9999"):
            argv = ["steady", "--n", "40", f"--omega-frac={frac}", "--theta", "0.3927",
                    "--tasks", "qfi_steady,bounds", "--format", "json"]
            assert cli_main(argv) == 0
            rows.append(json.loads(capsys.readouterr().out)[0])
        above, below = rows
        assert below["omega_over_gamma"] == -above["omega_over_gamma"]
        for col in ("qfi_steady", "eprop_sy", "eprop_sz"):
            assert below[col] == pytest.approx(above[col], rel=1e-9), col

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# small omega sweep\n"
            "axis = omega\n"
            "values = 0.1,0.3\n"
            "n = 6\n"
            "theta = 0.3927\n"
            "tasks = signals\n"
            "no-meta\n"
        )
        code = cli_main(["sweep", "--config", str(config)])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        # explicit flags win over config values
        code = cli_main(["sweep", "--config", str(config), "--values", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 2
        # the --config=PATH spelling reads the same file
        code = cli_main(["sweep", f"--config={config}"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert [line.split(",")[0] for line in lines[1:]] == ["6", "6"]

    def test_scaling_report(self, capsys):
        code = cli_main(
            ["scaling", "--n-list", "6,8,10,12", "--at-critical", "--theta", "0.3926990816987241",
             "--quantity", "qfi_steady"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["quantity"] == "qfi_steady"
        assert payload["n_points"] == 4
        assert len(payload["points"]) == 4
        assert payload["reference_exponents"]["critical_qfi"] == pytest.approx(4 / 3)

    def test_scaling_at_critical_is_independent_of_gamma(self, capsys):
        outputs = []
        for gamma in ("1", "2"):
            code = cli_main(
                ["scaling", "--n-list", "4,6,8,10", "--at-critical", "--theta", "0.3927",
                 "--gamma", gamma]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_n_spins_axis_rejects_non_integer_values(self, capsys):
        base = ["sweep", "--axis", "n_spins", "--omega", "0.2", "--theta", "0.3927", "--no-meta"]
        for grid in (["--values", "4.7,6.2"], ["--start", "10", "--stop", "20", "--points", "4"]):
            assert cli_main(base + grid) == 1
            assert "n_spins axis needs integer values" in capsys.readouterr().err
        for grid, ns in (
            (["--values", "4,8"], ["4", "8"]),
            (["--start", "10", "--stop", "40", "--points", "4"], ["10", "20", "30", "40"]),
        ):
            assert cli_main(base + grid) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == ns

    def test_theta_at_pi_over_4_has_no_critical_coupling(self, capsys):
        theta = ["--theta", repr(math.pi / 4)]
        assert cli_main(["steady", "--n", "6", "--omega-frac", "0.5", *theta]) == 1
        assert "theta < pi/4" in capsys.readouterr().err
        assert cli_main(["scaling", "--n-list", "4,6,8,10", "--at-critical", *theta]) == 1
        assert "theta < pi/4" in capsys.readouterr().err

    def test_scaling_needs_enough_points(self, capsys):
        assert cli_main(["scaling", "--n-list", "6,8", "--at-critical"]) == 1

    def test_selftest_cli(self, capsys):
        code = cli_main(["selftest", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") >= 8
        assert "selftest" in out.splitlines()[-1]

    def test_custom_generator_end_to_end(self, capsys):
        code = cli_main(
            ["steady", "--n", "6", "--omega", "0.2", "--theta", "0.3927",
             "--tasks", "qfi_perturbed,chi2", "--generator", "0,1,0",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload[0]["qfi_perturbed"] > 0
        assert payload[0]["chi2_perturbed"] == pytest.approx(
            6 / payload[0]["qfi_perturbed"]
        )

    def test_lambda_theta_end_to_end(self, capsys):
        code = cli_main(
            ["steady", "--n", "6", "--omega", "0.3", "--theta", "0.3",
             "--lambda", "theta", "--tasks", "bounds,qfi_steady,chi2",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload[0]["qfi_steady"] > 0
        assert payload[0]["eprop_sz"] > 0
        assert payload[0]["chi2_steady"] == pytest.approx(6 / payload[0]["qfi_steady"])

    @pytest.mark.parametrize("theta", [0.0, 1.5707])
    def test_lambda_theta_at_the_domain_edges_matches_one_sided_fd(self, capsys, theta):
        # the exact derivative needs no stencil around theta, so both ends
        # of [0, pi/2) give a row; the oracle steps into the domain only
        argv = ["steady", "--n", "6", "--omega", "0.2", "--theta", repr(theta),
                "--lambda", "theta", "--tasks", "qfi_steady", "--format", "json"]
        assert cli_main(argv) == 0
        qfi = json.loads(capsys.readouterr().out)[0]["qfi_steady"]
        h = 1e-4 if theta == 0.0 else -1e-4

        def rho(shift):
            params = ModelParams(6, 0.2, theta=theta + shift)
            return spincrit.liouvillian.build_generator(params).null_state.rho

        # Richardson extrapolation of the one-sided difference: O(h^2)
        drho = (4 * rho(h / 2) - 3 * rho(0.0) - rho(h)) / h
        steady = spincrit.liouvillian.build_generator(ModelParams(6, 0.2, theta=theta)).null_state
        assert qfi == pytest.approx(spectral_qfi(steady, drho), rel=1e-6)

    def test_lambda_theta_sweep_from_zero_fills_every_row(self):
        spec = small_spec(omega=0.3, axis="theta", values=(0.0, 0.3), tasks=("qfi_steady",),
                          lambda_name="theta")
        rows = run_sweep(spec)
        assert all("error" not in row and row["qfi_steady"] > 0 for row in rows)

    def test_solver_flag_removed(self, tmp_path, capsys):
        # one steady-state path: --solver, from the command line or a
        # config file, is an unknown argument
        argv = ["steady", "--n", "5", "--omega", "0.25", "--tasks", "signals"]
        assert cli_main(argv + ["--solver", "power"]) == 1
        config = tmp_path / "run.cfg"
        config.write_text("solver = power\n")
        assert cli_main(argv + ["--config", str(config)]) == 1
        assert "unrecognized arguments: --solver" in capsys.readouterr().err
