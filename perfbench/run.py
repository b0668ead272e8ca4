#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/main.exe with dune into
.bench_build, runs it, checks that its last output line carries exactly the
metrics BENCHMARK.json names for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and prints that line last.  Spans of a --trace 1
run go to .bench_out/.  Exits non-zero, printing no result, when the build,
the run or the check fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ".bench_build"
EXE = Path(BUILD_DIR) / "default" / "perfbench" / "main.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_result(line, expected):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result keys are {sorted(result) if isinstance(result, dict) else result!r}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")
        if m.get("unit") != expected[name]:
            fail(f"metric {name} has unit {m.get('unit')!r}, BENCHMARK.json says {expected[name]!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[kind]}

    try:
        code, out, err = run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                              "--profile", "release", "./perfbench/main.exe"], BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if code != 0:
        sys.stderr.write(err)
        fail("build failed")

    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        cmd += ["--spans", f".bench_out/spans-{args.workload}-seed{args.seed}.json"]
    try:
        code, out, err = run(cmd, RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines[-1]:
        fail(f"run exited with {code}")
    check_result(lines[-1], expected)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
