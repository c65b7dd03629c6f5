"""The names bench/tracer.py wraps must exist and see the calls it counts.

The tracer patches module globals of spincrit from outside, so a rename
in src/ would silently zero its metrics. This runs it, in a fresh
process, on one small steady report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import tracer
from spincrit.cli import cli_main

tr = tracer.install(sys.argv[1])
code = cli_main(["steady", "--n", "6", "--omega-frac", "0.5", "--theta", "0.3927", "--no-meta"])
print(json.dumps({"code": code, **tracer.layer_metrics(tr.all_spans(), 1)}))
"""


def test_tracer_sees_one_lu_per_report_and_no_dense_gap(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["code"] == 0
    # only the gap factorizes L; the uniqueness check needs no LU and the
    # state derivative is exact, so no other parameter point is solved
    assert metrics["liouvillian.splu.calls"] == 1
    assert metrics["liouvillian.liouvillian_spectrum.dense_calls"] == 0
    # the closed form iterates 0 times, and the tracer counts every method
    # but "power" as a fallback
    assert metrics["liouvillian.solve_steady_state.calls"] == 1
    assert metrics["liouvillian.solve_steady_state.iterations"] == 0
    assert metrics["liouvillian.solve_steady_state.fallbacks"] == 1
