"""Run one command and report on it:

    python3 spawn.py REPORT CMD [ARG...]

writes {"elapsed_s", "exit_code", "maxrss_kib"} of CMD as JSON to the
file REPORT and exits with CMD's exit code. CMD inherits this process's
stdin, stdout and stderr.

The benchmark starts every child through this small process. Linux
counts in a child's peak RSS the RSS its parent had when it forked, and
the benchmark's own process grows to about 100 MB with its in-process
runs and checks; forking from this fresh interpreter keeps that floor at
about 10 MB, below the peak of any workload.
"""
import json
import os
import subprocess
import sys
import time


def main(argv):
    report, cmd = argv[0], argv[1:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    # wait4 rather than Popen.wait: it returns this child's own resource
    # usage, peak RSS included.
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"elapsed_s": elapsed, "exit_code": proc.returncode,
                   "maxrss_kib": usage.ru_maxrss}, fh)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
