#!/usr/bin/env python3
"""Build the snf benchmark from source, then run one workload.

    python3 snfbench/run.py --workload tpcc-fwb --seed 1 --seconds 10 --trace 0
    python3 snfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 snfbench/run.py --self-test

The build goes to .bench_build/snfbench under the repository root (a
Release build of ../src plus the benchmark program); build output goes
to stderr, so the result stays the last line of stdout. A traced
run writes its spans, in Chrome trace-event JSON, to
.bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "snfbench")
WORKLOADS = ["tpcc-fwb", "ycsb-undo", "crash-tpcc", "all"]


def build(target):
    """Configure (once) and build @target; return its path or exit 1."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("snfbench: configuring the build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("snfbench: the build failed")
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        binary = build("snfbench_selftest")
        os.execv(binary, [binary])

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("snfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-json", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
