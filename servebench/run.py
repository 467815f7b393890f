#!/usr/bin/env python3
"""Builds servebench from the sources of this checkout, then runs it.

Run from the root of a checkout:

  python3 servebench/run.py --workload geo_point --seed 1 --seconds 10 --trace 0
  python3 servebench/run.py --self-test

The build (CMake, Release) goes to .bench_build/servebench and is reused by
later runs. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the engine
sources are missing, the build fails, or the run exceeds its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "servebench")
RUN_TIMEOUT_S = 170


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    for attempt in range(2):
        try:
            if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
                subprocess.run(configure, stdout=sys.stderr, check=True)
            subprocess.run(compile_, stdout=sys.stderr, check=True)
            return
        except subprocess.CalledProcessError:
            if attempt == 1:
                raise
            # A build tree configured elsewhere (or half written): start over.
            shutil.rmtree(BUILD, ignore_errors=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "mql", "session.h")):
        print("servebench: engine sources not found at " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("servebench: build failed: %s" % e, file=sys.stderr)
        return 2
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:] + ["--workdir", workdir],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
