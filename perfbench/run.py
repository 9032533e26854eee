#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --regen-cost-table

Every other argument is handed to the binary, which parses its own
flags and rejects unknown ones with exit code 2 (see perfbench/README.md).
The build lives in .bench_build/ and is redone incrementally on every call;
its output goes to stderr so the last line of stdout stays the result.
"""
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "perfbench")
COST_TABLE = os.path.join("perfbench", "data", "cost_table.tsv")


def build():
    """Configure once, then build incrementally. Returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                # A half-written cache would skip configuring next time.
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                              stdout=sys.stderr).returncode == 0


def main(argv):
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    args = list(argv)
    if "--regen-cost-table" in args and len(args) == 1:
        args = ["--regen-cost-table", COST_TABLE]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
