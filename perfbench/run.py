#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload udp-arq --seed 1 --seconds 45 --trace 0

Run from the root of a netdsl checkout.  The build goes to dune's _build
directory; its output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  Exits non-zero, printing no result, when the
build or the run fails.  A SIGTERM or SIGINT stops the child it is waiting
on before exiting.  See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
# beyond the measured --seconds: input generation, self-test, set-ups and,
# on a traced run, the count pass and the stage replays
RUN_MARGIN_S = 120


def run_child(cmd, timeout, **kw):
    """Run cmd to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_seconds(argv):
    """The run length bench.exe will take from argv (its default is 10 s)."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                return max(0.0, float(value))
            except ValueError:
                break  # bench.exe rejects it
    return 10.0


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; run from a netdsl checkout" % ROOT,
              file=sys.stderr)
        return 2
    try:
        build = run_child(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
                          BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    timeout = run_seconds(sys.argv[1:]) + RUN_MARGIN_S
    try:
        return run_child([EXE] + sys.argv[1:], timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
