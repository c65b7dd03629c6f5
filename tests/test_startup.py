"""Importing the CLI must not load scipy.integrate.

scipy.integrate drags in scipy.optimize, scipy.special and scipy.spatial,
about a third of the start-up time of every spincrit process, and only
evolve() uses it. This checks, in a fresh process, that it stays off the
import path and that evolve() still loads it and works.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import numpy as np
import spincrit.cli
from spincrit import ModelParams, build_generator, evolve

lazy = ("scipy.integrate", "scipy.optimize")
at_import = [name for name in lazy if name in sys.modules]
gen = build_generator(ModelParams(2, 0.3, 1.0, 0.35))
final = evolve(gen, np.eye(3) / 3, 1.0).final
print(json.dumps({
    "at_import": at_import,
    "after_evolve": [name for name in lazy if name in sys.modules],
    "trace": [np.trace(final).real, np.trace(final).imag],
}))
"""


def test_cli_import_leaves_scipy_integrate_unloaded_until_evolve():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["at_import"] == []
    assert "scipy.integrate" in result["after_evolve"]
    assert abs(result["trace"][0] - 1.0) <= 1e-12 and abs(result["trace"][1]) <= 1e-12
