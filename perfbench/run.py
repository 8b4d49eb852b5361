#!/usr/bin/env python3
"""Build and run the Sentry simulator host-throughput benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload population --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the simulator library under src/) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs
one workload in its own process. Every argument is passed to the
benchmark binary; this script adds the reference directory and, for
traced runs, a chrome://tracing output file in the build directory.
The binary's standard output is passed through unchanged, so its last
line is the result JSON. Exit code: the binary's, or 3 when the build
fails (nothing is printed on stdout then).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def option(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main(argv):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(build_dir, "perfbench"), *argv,
           "--ref-dir", os.path.join(HERE, "reference")]
    if option(argv, "--trace", "0") == "1":
        name = "trace-%s-%s.json" % (option(argv, "--workload", "unknown"),
                                     option(argv, "--seed", "0"))
        cmd += ["--trace-out", os.path.join(build_dir, name)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
