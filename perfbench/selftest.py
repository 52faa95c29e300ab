#!/usr/bin/env python3
"""Self-test of the hetpapi benchmark at tiny problem sizes.

Runs all four workloads in one process, untraced and traced, and asserts
that every output check passes and that every metric BENCHMARK.json names
is reported for each of them. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout[-4000:])
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"selftest: run.py --trace {trace} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    # hpl_table2 is not in BENCHMARK.json (see NOTES.md) but is tested too.
    workloads = ["hpl_table2"] + [w["name"] for w in spec["workloads"]]
    failures = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = run(trace)
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            failures.append(f"trace {trace}: correct={result['correct']} "
                            f"attempted={result['attempted']} failed={result['failed']}")
        for workload in workloads:
            for metric in spec[group]:
                key = f"{workload}.{metric['name']}"
                got = result["metrics"].get(key)
                if got is None:
                    failures.append(f"trace {trace}: missing {key}")
                elif got["unit"] != metric["unit"]:
                    failures.append(f"trace {trace}: {key} unit {got['unit']}")
                elif group == "end_to_end" and not got["value"] > 0:
                    failures.append(f"trace {trace}: {key} = {got['value']}")
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
