"""The package never loads scipy.integrate or scipy.optimize.

scipy.integrate drags in scipy.optimize, scipy.special and scipy.spatial,
about a third of the start-up time of every spincrit process. This
checks, in a fresh process, that importing the CLI and running a small
steady report with every task, the gap included, loads neither.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from spincrit.cli import cli_main

code = cli_main(["steady", "--n", "6", "--omega", "0.2", "--theta", "0.3", "--no-meta"])
print(json.dumps({
    "code": code,
    "loaded": [name for name in ("scipy.integrate", "scipy.optimize") if name in sys.modules],
}))
"""


def test_cli_and_a_full_report_leave_scipy_integrate_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result == {"code": 0, "loaded": []}
    # the report itself ran: a header and one row with the gap filled in
    header, row = lines[:2]
    assert row.split(",")[header.split(",").index("gap")]
