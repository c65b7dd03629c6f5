"""spincrit benchmark: run one CLI workload in fresh processes and check it.

usage: python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its src/ directory. Each round starts a fresh process that imports the
CLI and calls cli_main once (bench/child.py). Rounds repeat while the
measured time stays short of --seconds by more than half a round; there
is at least one. Every round's output is checked against reference.py.

--trace 0 prints the end-to-end metrics: setup_s (process start to
spincrit.cli imported, median of several fresh processes), wall_s
(cli_main call to output written, median over rounds), points_per_s
(output rows per second of wall_s, median) and peak_rss_mb (largest
resident set of any process of a round, pool workers included, median
over rounds).

--trace 1 alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones (median), plus trace.overhead_s,
the traced minus the untraced median wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every workload process gets
one BLAS thread, so that workers x BLAS threads <= cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import numpy
import scipy

import reference
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# a run must end within 180 s; no round starts that could pass this
RUN_DEADLINE_S = 165.0
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _source_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spincrit", "cli.py")):
        raise SystemExit("bench: run from the root of a spincrit checkout (src/spincrit/cli.py not found)")
    return root


def declared_units(root: str, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = os.path.join(git, name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "spincrit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _blas() -> str:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def environment(root: str, jobs: int) -> dict:
    return {
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "jobs": jobs,
    }


class Runner:
    """Starts workload processes and collects their records."""

    def __init__(self, root: str, work_dir: str, deadline: float) -> None:
        self.root = root
        self.deadline = deadline
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
        self.count = 0

    def child(self, mode: str, extra: list[str]) -> dict:
        self.count += 1
        record = os.path.join(self.work_dir, f"record-{self.count}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py")]
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd + [repr(t0), record, mode] + extra,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit("bench: workload process did not end before the run deadline")
        if proc.returncode != 0:
            raise SystemExit(f"bench: workload process exited with {proc.returncode}")
        with open(record, encoding="utf-8") as fh:
            return json.load(fh)

    def setup(self) -> float:
        return self.child("setup", [])["setup_s"]

    def round(self, wl: dict, seed: int, traced: bool) -> tuple[dict, str]:
        self.count += 1
        out = os.path.join(self.work_dir, f"out-{self.count}")
        spool = os.path.join(self.work_dir, f"spool-{self.count}")
        os.mkdir(spool)
        argv = wl["argv"] + ["--seed", str(seed), "--out", out]
        mode = "trace" if traced else "run"
        return self.child(mode, [spool, str(wl["jobs"]), "--"] + argv), out


def measure(name: str, seed: int, seconds: float, trace: bool, root: str, work_dir: str) -> dict:
    wl = workloads.WORKLOADS[name]
    runner = Runner(root, work_dir, time.monotonic() + RUN_DEADLINE_S)
    problems = reference.self_check()
    prepared = wl["prepare"](seed)

    runner.setup()  # fills the file cache; not counted
    setups = []
    rounds = {False: [], True: []}
    attempted = failed = 0
    spent = last = 0.0
    # whole rounds; stop when one more would overshoot by over half a round
    while spent + 0.5 * last < seconds or (trace and not rounds[True]):
        if rounds[False] and time.monotonic() + 1.5 * last > runner.deadline:
            break
        traced = trace and len(rounds[True]) < len(rounds[False])
        # one import-only process per round spreads the setup samples
        # over the run, like the rounds themselves
        setups.append(runner.setup())
        record, out = runner.round(wl, seed, traced)
        last = record["wall_s"]
        spent += last
        print(
            f"{name}: round {len(rounds[False]) + len(rounds[True]) + 1}"
            f"{' traced' if traced else ''}: wall {record['wall_s']:.3f} s, "
            f"setup {record['setup_s']:.3f} s, rss {record['peak_rss_mb']:.1f} MB",
            file=sys.stderr,
        )
        setups.append(record["setup_s"])
        try:
            if record["exit_code"] != 0:
                raise ValueError(f"exit code {record['exit_code']}")
            n_att, n_fail, extra = wl["check"](out, prepared)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # every point of the round failed; the run stays correct
            print(f"{name}: round failed: {exc!r}", file=sys.stderr)
            n_att, n_fail, extra = wl["points"], wl["points"], []
        attempted += n_att
        failed += n_fail
        problems += extra
        rounds[traced].append(record)

    untraced = rounds[False]
    walls = [r["wall_s"] for r in untraced]
    if trace:
        layers = [r["layers"] for r in rounds[True]]
        metrics = {key: median(run[key] for run in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = median(r["wall_s"] for r in rounds[True]) - median(walls)
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "points_per_s": median(wl["points"] / w for w in walls),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(untraced) + len(rounds[True]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = _source_root()
    units = declared_units(root, bool(args.trace))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work_dir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(work_dir)
    results = {}
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            env = environment(root, wl["jobs"])
            print("environment " + json.dumps(env), flush=True)
            run_dir = os.path.join(work_dir, name)
            os.mkdir(run_dir)
            res = measure(name, args.seed, args.seconds, bool(args.trace), root, run_dir)
            if set(res["metrics"]) != set(units):
                raise SystemExit(
                    f"bench: metrics {sorted(set(res['metrics']) ^ set(units))} "
                    "disagree with BENCHMARK.json"
                )
            res["metrics"] = {
                key: {"value": float(value), "unit": units[key]}
                for key, value in res["metrics"].items()
            }
            for problem in res.pop("problems"):
                print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
            print(f"{name}: {res['rounds']} rounds, {res['attempted']} points attempted, "
                  f"{res['failed']} failed, correct={res['correct']}")
            for key, m in res["metrics"].items():
                print(f"  {name} {key} = {m['value']:.6g} {m['unit']}")
            del res["rounds"]
            results[name] = res
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
