#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipelined --seed 1 --seconds 10 --trace 0

The library and the benchmark binary are built with CMake into
.bench_build/ (incremental after the first run). The benchmark writes
its seeded deployment under .bench_build/ too and removes it when done.
The last line of stdout is the benchmark's JSON result. Exits non-zero,
without a result, when the sources or the build are missing.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pipelined", "singular", "burst", "burst_int8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        sys.exit("perfbench: run from the root of a checkout holding "
                 "CMakeLists.txt and src/")
    build = os.path.join(root, ".bench_build", "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(3, os.cpu_count() or 1))
    for step in (
        ["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", build, "--target", "mime_perfbench", "-j", jobs],
    ):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")

    store = os.path.join(root, ".bench_build", "store-%s-%d" % (args.workload, os.getpid()))
    try:
        result = subprocess.run([
            os.path.join(build, "mime_perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--store", store,
        ])
    finally:
        shutil.rmtree(store, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
