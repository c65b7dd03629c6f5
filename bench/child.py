"""One workload process: import the CLI, run it once, write a record.

usage: child.py T0 RECORD setup
       child.py T0 RECORD run|trace SPOOL_DIR JOBS -- CLI_ARGS...

T0 is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so the import time
is measured from the real start of the process. Nothing but the
standard library is imported before spincrit.cli.
"""

import sys
import time

T0 = float(sys.argv[1])

from spincrit.cli import cli_main  # noqa: E402

SETUP_S = time.monotonic() - T0

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child it reaped.

    The process's own peak comes from VmHWM: Linux carries the parent's
    peak across exec into RUSAGE_SELF, so ru_maxrss would report the
    benchmark's reference computations instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> None:
    record_path, mode = sys.argv[2], sys.argv[3]
    record = {"setup_s": SETUP_S}
    if mode != "setup":
        spool_dir, jobs = sys.argv[4], int(sys.argv[5])
        cli_args = sys.argv[sys.argv.index("--") + 1 :]
        entry, tracer = cli_main, None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.install(spool_dir)
            entry = tracer.span("cli.cli_main", cli_main)
        start = time.monotonic()
        try:
            code = entry(cli_args)
        except Exception:  # a crash fails the round's points, not the run
            traceback.print_exc()
            code = -1
        record["wall_s"] = time.monotonic() - start
        record["exit_code"] = code
        record["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer.all_spans(), jobs)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
