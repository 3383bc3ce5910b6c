#!/usr/bin/env python3
"""Builds the benchmark from this source tree and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S [--trace 0|1] [--jobs N]

Run it from the repository root. The first run configures and builds a
Release tree in .bench_build/perfbench (the aeo library and the perfbench
binary only); later runs rebuild only what changed. Build output goes to
stderr, so the last line on stdout is always the benchmark's JSON result.
Every argument is passed to the binary, which rejects anything it does not
know (see perfbench/src/cli.h).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.stderr.write("perfbench: no aeo source tree next to perfbench/\n")
        return 2
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                     "-DPERFBENCH_BUILD_TESTS=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code = subprocess.call(configure, stdout=sys.stderr)
        if code != 0:
            return code
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)


def main():
    code = build()
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        return code if code > 0 else 1
    sys.stdout.flush()
    return subprocess.call([BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
