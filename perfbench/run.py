#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --probe-check
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (a CMake project over the
library sources in src/) into .bench_build/perfbench as a Release build;
later runs only check that the build is up to date.  Build output goes to
standard error.  bbperf's last line of standard output is the result
JSON described in perfbench/README.md.
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) under " + root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_dir = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bbperf",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "bbperf")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    sys.stdout.flush()
    # bbperf replaces this process, so no child outlives the run.
    os.execv(binary, [binary] + sys.argv[1:] + ["--repo-root", root])


if __name__ == "__main__":
    main()
