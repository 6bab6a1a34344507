#!/usr/bin/env python3
"""End-to-end benchmark of the eclb simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the simulator library and the
benchmark driver from the checkout's sources into .bench_build/perfbench
(RelWithDebInfo, the repository's default build type), then runs one
workload for S seconds.  With --trace 1 the driver also writes the last
traced episode as Chrome trace-event JSON to .bench_build/traces/.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Exits non-zero, without that line, when the build or the run fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
DRIVER = os.path.join(BUILD_DIR, "eclb_perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.h")):
        sys.exit("perfbench: no simulator sources in this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "eclb_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout carries only the benchmark's report.
        code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        sys.exit("perfbench: --seed must be >= 0 and --seconds in [1, 120]")

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACE_DIR, args.workload + ".json")]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: driver exited with code {code}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed driver result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
