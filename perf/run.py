#!/usr/bin/env python3
"""Builds and runs the ESCAPE-cpp end-to-end benchmark.

Run from the root of a checkout:

    python3 perf/run.py --workload chain_forwarding --seed 1 --seconds 10 --trace 0

The first call configures and builds perf/ (the repository's libraries
plus the benchmark program) as an optimised build under .bench_build/;
later calls rebuild incrementally. Build output goes to stderr. The program prints
every metric with its unit and, as the last line of stdout, one JSON
object with the result and the correctness gate. See perf/NOTES.md.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "escape_perf")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perf: no escape sources at %s/src; nothing to build" % ROOT)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr,
                       env=env)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perf: build failed: %s" % e)
    result = subprocess.run([BINARY] + sys.argv[1:] + ["--out-dir", BUILD], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
