"""Start-up loads as little of scipy as each command needs.

scipy is imported only by the code that assembles, factorizes or
diagonalizes the Liouvillian, so importing the CLI, and the meanfield
command, load no scipy module at all; that was about half the start-up
time of every spincrit process. Steady rows factorize L only for the
gap, so a sweep without it loads neither scipy.linalg nor
scipy.sparse.linalg. A full steady report, the gap included,
still loads neither scipy.integrate nor scipy.optimize, which would
drag in scipy.special and scipy.spatial. Each check runs in a fresh
process.
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

imported = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
code = cli_main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "on_import": imported,
    "after_run": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
}))
"""


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_cli_import_and_meanfield_load_no_scipy():
    lines, result = _run("meanfield", "--theta", "0.3927", "--omega", "0.5", "--n", "100")
    assert result == {"code": 0, "on_import": [], "after_run": []}
    assert any(line.startswith("omega_c = ") for line in lines)


def test_cli_and_a_full_report_leave_scipy_integrate_unloaded():
    lines, result = _run("steady", "--n", "6", "--omega", "0.2", "--theta", "0.3", "--no-meta")
    assert result["code"] == 0 and result["on_import"] == []
    assert "scipy.sparse.linalg" in result["after_run"]
    for name in ("scipy.integrate", "scipy.optimize"):
        assert name not in result["after_run"]
    # the report itself ran: a header and one row with the gap filled in
    header, row = lines[:2]
    assert row.split(",")[header.split(",").index("gap")]


def test_a_sweep_without_gap_loads_no_linear_algebra():
    # build_generator needs scipy.sparse; nothing factorizes or diagonalizes L
    lines, result = _run(
        "sweep", "--n", "6", "--theta", "0.3", "--values", "0.1,0.2",
        "--tasks", "signals,meanfield", "--no-meta",
    )
    assert result["code"] == 0 and result["on_import"] == []
    assert "scipy.sparse" in result["after_run"]
    for name in ("scipy.sparse.linalg", "scipy.linalg"):
        assert name not in result["after_run"]
    assert len(lines) == 3 and all(line.endswith(",") for line in lines[1:])
