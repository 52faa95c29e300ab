#!/usr/bin/env python3
"""Build and run the hetpapi benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of hpl_table2, counter_reads, service_fanout,
sampling_profile, or `all` to run the four in one process. The first call
configures and builds the benchmark (a Release build of the repository's
`src/` plus the program in `perfbench/src/`) under `.bench_build/perfbench`;
later calls only rebuild what changed. Build output goes to stderr. The
last line of stdout is the result JSON the program prints; the exit
code is non-zero when the build fails or any output check fails.

See perfbench/NOTES.md for the workloads, the metrics and how the
measurements are made steady on a shared machine.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Run a build step with its output sent to stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "papi", "library.hpp")):
        print("perfbench: hetpapi sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, BUILD_TIMEOUT_S) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs],
                     BUILD_TIMEOUT_S) == 0


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced problem sizes (self-test)")
    args = parser.parse_args()

    try:
        built = build()
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces"),
           "--commit", commit()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
