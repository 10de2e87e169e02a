#!/usr/bin/env python3
"""Builds and runs the drcm performance benchmark.

    python3 perfbench/run.py --workload order_deep --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the harness (Release) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the harness's
JSON result. Exits non-zero, printing no result, when the drcm sources
are missing, the build fails, or DRCM_THREADS / DRCM_SPMSPV_ACC is set
(both silently switch library code paths).
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("order_deep", "order_wide", "service_stream")
REFUSED_ENV = ("DRCM_THREADS", "DRCM_SPMSPV_ACC")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rcm", "rcm_driver.hpp")):
        return fail(f"no drcm sources under {ROOT}/src")
    for var in REFUSED_ENV:
        if var in os.environ:
            return fail(f"{var} is set; it switches library code paths, "
                        "unset it to benchmark the default configuration")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           os.path.join(trace_dir, f"{args.workload}_seed{args.seed}.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
