#!/usr/bin/env python3
"""Builds and runs the SVQA repository benchmark.

    python3 perfbench/run.py --workload ingest|ask_hot|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the `perfbench` binary (Release, CMake + Ninja when present)
under $CARGO_TARGET_DIR (default `.bench_build`) in the repository;
later calls rebuild incrementally. Build output goes to stderr. The
binary's standard output is passed through; its last line is the JSON
result, whose metric names are checked against BENCHMARK.json. The exit
code is the binary's: 0 when every check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no SVQA sources next to perfbench/", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return fail("build failed")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out_dir", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        printed = list(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(f"perfbench exited {run.returncode} without a result", 1)
    want = expected_metrics(args.trace)
    if sorted(printed) != sorted(want) or \
            sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("result keys do not match BENCHMARK.json", 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
