"""Spans around the calls between spincrit's modules, recorded from outside.

The tracer replaces the names a module imported from the layer below
with timing wrappers, in the workload process only. Pool workers forked
from that process inherit the wrappers; each worker appends its finished
top-level spans to a spool file, which the workload process reads back
after the run.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time

import spincrit.cli
import spincrit.harness
import spincrit.liouvillian
import spincrit.meanfield
import spincrit.metrology

MEANFIELD_FUNCTIONS = (
    "magnetization",
    "hp_coefficients",
    "gaussian_steady_state",
    "predict_signals",
    "bound_omega",
    "bound_theta",
    "optimal_theta",
    "analytic_qfi_chi",
    "scaling_exponents",
)


class Tracer:
    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # a forked worker starts with no spans of its own
        self.spans, self.stack = [], []

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so that each call records a span called name.

        before(args, kwargs, span) may return replaced arguments;
        after(result, span) may add counts to the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self.stack[-1]["name"] if self.stack else None,
                "child_s": 0.0,
            }
            if before is not None:
                args, kwargs = before(args, kwargs, rec)
            self.stack.append(rec)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["s"] = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1]["child_s"] += rec["s"]
                self.spans.append(rec)
                if not self.stack and os.getpid() != self.main_pid:
                    self._spool()
            if after is not None:
                after(result, rec)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, before=None, after=None) -> None:
        setattr(module, attr, self.span(name, getattr(module, attr), before, after))

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans = []

    def all_spans(self) -> list[dict]:
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def _count_solves(args, kwargs, rec):
    solver = args[0]
    rec["solves"] = 0

    def counted(value):
        rec["solves"] += 1
        return solver(value)

    return (counted,) + args[1:], kwargs


def _set(key, value_of):
    def after(result, rec):
        rec[key] = value_of(result)

    return after


def install(spool_dir: str) -> Tracer:
    """Wrap every cross-module call the CLI path makes."""
    tr = Tracer(spool_dir)
    cli, harness = spincrit.cli, spincrit.harness
    liouvillian, metrology = spincrit.liouvillian, spincrit.metrology
    for module in (liouvillian, harness, metrology):
        tr.patch(module, "build_operators", "operators.build_operators")
    for module in (harness, metrology):
        tr.patch(module, "expectation", "operators.expectation")
        tr.patch(module, "variance", "operators.expectation")
        tr.patch(
            module,
            "build_generator",
            "liouvillian.build_generator",
            after=_set("nnz", lambda gen: gen.matrix.nnz),
        )
        tr.patch(
            module,
            "solve_steady_state",
            "liouvillian.solve_steady_state",
            after=lambda st, rec: rec.update(
                iterations=st.iterations, fallback=int(st.method != "power")
            ),
        )
    # SuperLU.nnz is the stored size of L and U (supernodes padded);
    # reading lu.L and lu.U instead would copy both factors
    tr.patch(liouvillian, "splu", "liouvillian.splu", after=_set("fill", lambda lu: lu.nnz))
    tr.patch(
        harness,
        "liouvillian_spectrum",
        "liouvillian.liouvillian_spectrum",
        after=_set("dense", lambda rep: int(rep.method == "dense")),
    )
    tr.patch(harness, "qfi_steady", "metrology.qfi_steady", before=_count_solves)
    for attr in ("error_propagation", "qfi_perturbed", "xi_squared"):
        tr.patch(harness, attr, f"metrology.{attr}")
    for attr in MEANFIELD_FUNCTIONS:
        tr.patch(spincrit.meanfield, attr, "meanfield")
    for module in (harness, cli):
        tr.patch(module, "compute_report", "harness.compute_report")
    tr.patch(cli, "run_sweep", "harness.run_sweep")
    tr.patch(cli, "render_sweep", "harness.render_sweep")
    return tr


def layer_metrics(spans: list[dict], jobs: int) -> dict[str, float]:
    """Per-layer counts and times of one traced run.

    A span's self time is its duration minus that of its direct children.
    meanfield counts only calls from outside the meanfield module.
    """

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key="s"):
        return float(sum(s.get(key, 0) for s in of(name)))

    def self_s(name):
        return float(sum(s["s"] - s["child_s"] for s in of(name)))

    out: dict[str, float] = {}
    for name in (
        "operators.build_operators",
        "operators.expectation",
        "liouvillian.build_generator",
        "liouvillian.splu",
        "liouvillian.solve_steady_state",
        "liouvillian.liouvillian_spectrum",
        "metrology.qfi_steady",
        "metrology.error_propagation",
        "harness.compute_report",
    ):
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.s"] = total(name)
    for name in (
        "liouvillian.solve_steady_state",
        "metrology.qfi_steady",
        "metrology.error_propagation",
        "harness.compute_report",
    ):
        out[f"{name}.self_s"] = self_s(name)
    out["liouvillian.generator.nnz"] = total("liouvillian.build_generator", "nnz")
    out["liouvillian.splu.fill"] = total("liouvillian.splu", "fill")
    out["liouvillian.solve_steady_state.iterations"] = total(
        "liouvillian.solve_steady_state", "iterations"
    )
    out["liouvillian.solve_steady_state.fallbacks"] = total(
        "liouvillian.solve_steady_state", "fallback"
    )
    out["liouvillian.liouvillian_spectrum.dense_calls"] = total(
        "liouvillian.liouvillian_spectrum", "dense"
    )
    out["metrology.qfi_steady.solves"] = total("metrology.qfi_steady", "solves")
    out["metrology.qfi_perturbed.s"] = total("metrology.qfi_perturbed")
    out["metrology.xi_squared.s"] = total("metrology.xi_squared")
    outer_mf = [s for s in of("meanfield") if s["parent"] != "meanfield"]
    out["meanfield.calls"] = len(outer_mf)
    out["meanfield.s"] = float(sum(s["s"] for s in outer_mf))
    out["harness.run_sweep.s"] = total("harness.run_sweep")
    out["harness.render_sweep.s"] = total("harness.render_sweep")
    sweep_s = out["harness.run_sweep.s"]
    out["harness.pool_efficiency"] = (
        out["harness.compute_report.s"] / (jobs * sweep_s) if sweep_s > 0 else 0.0
    )
    out["cli.cli_main.s"] = total("cli.cli_main")
    out["cli.self_s"] = self_s("cli.cli_main")
    return out
