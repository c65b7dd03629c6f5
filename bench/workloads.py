"""The four CLI workloads and the checks of their output.

Each workload is a fixed command line. The seed reaches the program
only as its --seed flag (the start vector of the degeneracy probe); in
the benchmark it picks which rows are compared against the reference
(reference.py). The grids themselves never move, so the omega = omega_c
points stay where the paper puts them.

prepare(seed) computes everything the checks need once per benchmark
run; check(path, prepared) returns (points attempted, points failed,
problems) for one output file. A point fails if its row carries an
error or fails any of its checks; problems that belong to no single
point (the scaling fit) make the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import random

import numpy as np

import reference as ref

THETA = 0.3927
OMEGA_C = math.cos(2 * THETA)
HALF_OMEGA = 0.5 * OMEGA_C


def _close(value, target, rel=0.0, abs_=0.0) -> bool:
    return value is not None and abs(value - target) <= max(abs_, rel * abs(target))


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = []
    for raw in csv.DictReader(lines):
        row = {}
        for key, text in raw.items():
            if key == "error" or text in ("", None):
                row[key] = text or None
            else:
                row[key] = float(text)
        rows.append(row)
    return rows


def _rows_result(rows: list[dict], expected: int, row_checks):
    """(attempted, failed, problems) for a CSV with one row per point.

    A row fails if it carries an error, if any of its checks is False,
    or if a value a check needs is missing; a missing row fails too.
    """
    problems = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
    failed = max(0, expected - len(rows))
    for i, row in enumerate(rows[:expected]):
        try:
            ok = not row["error"] and all(row_checks(i, row))
        except (TypeError, KeyError):
            ok = False
        failed += not ok
    return expected, failed, problems


def _spin_state_refs(n: int, omega: float) -> dict:
    ops = ref.spin_matrices(n)
    rho = ref.steady_state(n, omega, THETA)
    s = n / 2
    out = {"ops": ops, "rho": rho}
    for axis in ("sx", "sy", "sz"):
        out[axis] = ref.expect(ops[axis] / s, rho)
    out["var_sy"] = ref.var(ops["sy"] / s, rho)
    out["var_sz"] = ref.var(ops["sz"] / s, rho)
    return out


def _signals_ok(row: dict, want: dict) -> list[bool]:
    return [_close(row[k], want[k], abs_=1e-8) for k in ("sx", "sy", "sz", "var_sy", "var_sz")]


def _optimal_generator(ops: dict, omega: float) -> np.ndarray:
    m = ref.magnetization(omega, OMEGA_C)
    return m * ops["sy"] + math.sqrt(1.0 - m * m) * ops["sz"]


# ---------------------------------------------------------------------------
# transition_sweep: magnetization across the transition at N = 100
# ---------------------------------------------------------------------------

SWEEP_POINTS, SWEEP_STOP = 30, 0.919


def _transition_prepare(seed: int) -> dict:
    grid = [i * SWEEP_STOP / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS)]
    chosen = sorted(random.Random(seed).sample(range(SWEEP_POINTS), 4))
    return {"grid": grid, "refs": {i: _spin_state_refs(100, grid[i]) for i in chosen}}


def _transition_check(path: str, prep: dict):
    rows = _read_csv(path)
    grid, refs = prep["grid"], prep["refs"]

    def checks(i, row):
        omega = grid[i]
        m = ref.magnetization(omega, OMEGA_C)
        yield row["n"] == 100 and _close(row["omega_over_gamma"], omega, abs_=1e-11)
        yield all(abs(row[k]) <= 1 + 1e-12 for k in ("sx", "sy", "sz"))
        yield row["var_sy"] >= 0 and row["var_sz"] >= 0
        yield _close(row["mf_m"], m, abs_=1e-11)
        if m > 0:
            yield _close(row["mf_sy"], omega / OMEGA_C, abs_=1e-11)
            yield _close(row["mf_sz"], -m, abs_=1e-11)
        else:
            yield row["mf_m"] == 0 and row["mf_sz"] == 0 and row["mf_sy"] is None
        if i in refs:
            yield all(_signals_ok(row, refs[i]))

    return _rows_result(rows, SWEEP_POINTS, checks)


# ---------------------------------------------------------------------------
# critical_scaling: F_Q at omega_c for N = 40..200 and its power-law fit
# ---------------------------------------------------------------------------

SCALING_N = (40, 80, 120, 160, 200)


def _scaling_prepare(seed: int) -> dict:
    h = ref.default_step(OMEGA_C, OMEGA_C)
    return {
        n: ref.bures_qfi(
            ref.steady_state(n, OMEGA_C - h, THETA), ref.steady_state(n, OMEGA_C + h, THETA), h
        )
        for n in random.Random(seed).sample(SCALING_N, 2)
    }


def _scaling_check(path: str, prep: dict):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    points = payload["points"]
    failed = sum(
        1
        for n, point in zip(SCALING_N, points)
        if point["n"] != n
        or not point["qfi_steady"] > 0
        or (n in prep and not _close(point["qfi_steady"], prep[n], rel=1e-5))
    ) + max(0, len(SCALING_N) - len(points))
    problems = []
    slope, _ = np.polyfit(np.log(SCALING_N), np.log([p["qfi_steady"] for p in points]), 1)
    if not _close(payload["exponent"], slope, rel=1e-9):
        problems.append(f"reported exponent {payload['exponent']} != refit {slope}")
    if not (1.15 <= payload["exponent"] <= 1.50 and payload["r_squared"] >= 0.98):
        problems.append(
            f"exponent {payload['exponent']:.4f} (R^2 {payload['r_squared']:.5f}) "
            "outside [1.15, 1.50] or R^2 < 0.98"
        )
    return len(SCALING_N), failed, problems


# ---------------------------------------------------------------------------
# full_report: every solver task at N = 40, 64, 100, omega = omega_c / 2
# ---------------------------------------------------------------------------

REPORT_N = (40, 64, 100)


def _report_prepare(seed: int) -> dict:
    h = ref.default_step(HALF_OMEGA, OMEGA_C)
    out = {}
    for n in random.Random(seed).sample(REPORT_N, 2):
        r = _spin_state_refs(n, HALF_OMEGA)
        ops, rho, s = r["ops"], r["rho"], n / 2
        minus = ref.steady_state(n, HALF_OMEGA - h, THETA)
        plus = ref.steady_state(n, HALF_OMEGA + h, THETA)
        for axis in ("sy", "sz"):
            op = ops[axis] / s
            slope = (ref.expect(op, plus) - ref.expect(op, minus)) / (2 * h)
            r[f"eprop_{axis}"] = math.sqrt(ref.var(op, rho)) / abs(slope)
        r["qfi_steady"] = ref.bures_qfi(minus, plus, h)
        gen = _optimal_generator(ops, HALF_OMEGA)
        r["qfi_perturbed"] = ref.phase_qfi(rho, gen)
        r["four_var_g"] = 4 * ref.var(gen, rho)
        r["xi2"], r["xi2_dir"] = ref.squeezing(ops, rho, n)
        r["gap"] = ref.spectral_gap(n, HALF_OMEGA, THETA)
        out[n] = r
    return out


def _report_check(path: str, prep: dict):
    rows = _read_csv(path)

    def checks(i, row):
        n = REPORT_N[i]
        yield row["n"] == n and _close(row["omega_over_gamma"], HALF_OMEGA, abs_=1e-11)
        yield _close(row["chi2_steady"], n / row["qfi_steady"], rel=1e-10)
        yield _close(row["chi2_perturbed"], n / row["qfi_perturbed"], rel=1e-10)
        yield row["var_sy"] >= 0 and row["var_sz"] >= 0 and 0 < row["xi2"]
        if n not in prep:
            return
        want = prep[n]
        yield from _signals_ok(row, want)
        yield _close(row["eprop_sy"], want["eprop_sy"], rel=1e-6)
        yield _close(row["eprop_sz"], want["eprop_sz"], rel=1e-6)
        yield _close(row["qfi_steady"], want["qfi_steady"], rel=1e-5)
        yield _close(row["qfi_perturbed"], want["qfi_perturbed"], rel=1e-6)
        yield 0 <= row["qfi_perturbed"] <= want["four_var_g"] * (1 + 1e-9)
        yield _close(row["xi2"], want["xi2"], rel=1e-8)
        direction = np.array([row["xi2_nx"], row["xi2_ny"], row["xi2_nz"]])
        yield abs(abs(direction @ want["xi2_dir"]) - 1) <= 1e-8
        # eigs gets no start vector, so the last digits of the gap vary
        yield _close(row["gap"], want["gap"], rel=1e-8)

    return _rows_result(rows, len(REPORT_N), checks)


# ---------------------------------------------------------------------------
# pool_chi2_vs_n: chi^2 of the optimal generator, N = 40..200, two workers
# ---------------------------------------------------------------------------

POOL_N = (40, 60, 80, 100, 120, 140, 160, 180, 200)


def _pool_prepare(seed: int) -> dict:
    refs = {}
    for n in sorted(random.Random(seed).sample(POOL_N, 2)):
        ops, rho = ref.spin_matrices(n), ref.steady_state(n, HALF_OMEGA, THETA)
        gen = _optimal_generator(ops, HALF_OMEGA)
        refs[n] = {"qfi_perturbed": ref.phase_qfi(rho, gen), "four_var_g": 4 * ref.var(gen, rho)}
    return {"refs": refs, "chi2": ref.closed_form_chi2(HALF_OMEGA, THETA)}


def _pool_check(path: str, prep: dict):
    rows = _read_csv(path)

    def checks(i, row):
        n = POOL_N[i]
        qfi = row["qfi_perturbed"]
        yield row["n"] == n and _close(row["omega_over_gamma"], HALF_OMEGA, abs_=1e-11)
        yield qfi > 0 and _close(row["chi2_perturbed"], n / qfi, rel=1e-10)
        yield _close(row["chi2_perturbed"], prep["chi2"], rel=0.20)
        if n in prep["refs"]:
            want = prep["refs"][n]
            yield _close(qfi, want["qfi_perturbed"], rel=1e-6)
            yield qfi <= want["four_var_g"] * (1 + 1e-9)

    return _rows_result(rows, len(POOL_N), checks)


# ---------------------------------------------------------------------------

def _theta(*args: str) -> list[str]:
    return [*args, "--theta", str(THETA)]


# BENCHMARK.json gates transition_sweep and full_report only; the other
# two need more run time than the gated set allows (see README.md) and
# are run by hand.
WORKLOADS = {
    "transition_sweep": {
        "argv": _theta(
            "sweep", "--axis", "omega", "--start", "0", "--stop", str(SWEEP_STOP),
            "--points", str(SWEEP_POINTS), "--n", "100", "--tasks", "signals,meanfield",
        ),
        "points": SWEEP_POINTS,
        "jobs": 1,
        "prepare": _transition_prepare,
        "check": _transition_check,
    },
    "critical_scaling": {
        "argv": _theta(
            "scaling", "--n-list", ",".join(map(str, SCALING_N)), "--at-critical",
        ),
        "points": len(SCALING_N),
        "jobs": 1,
        "prepare": _scaling_prepare,
        "check": _scaling_check,
    },
    "full_report": {
        "argv": _theta(
            "sweep", "--axis", "n_spins", "--values", ",".join(map(str, REPORT_N)),
            "--omega-frac", "0.5",
            "--tasks", "signals,bounds,qfi_steady,qfi_perturbed,chi2,xi2,gap",
        ),
        "points": len(REPORT_N),
        "jobs": 1,
        "prepare": _report_prepare,
        "check": _report_check,
    },
    "pool_chi2_vs_n": {
        "argv": _theta(
            "sweep", "--axis", "n_spins", "--values", ",".join(map(str, POOL_N)),
            "--omega-frac", "0.5", "--tasks", "qfi_perturbed,chi2",
            "--generator", "optimal", "--jobs", "2",
        ),
        "points": len(POOL_N),
        "jobs": 2,
        "prepare": _pool_prepare,
        "check": _pool_check,
    },
}
