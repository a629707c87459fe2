#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

The library and the benchmark executable are built from source in Release into
.bench_build/e2ebench at the repository root (the root build files are used
as they are). Build output goes to stderr; the executable's stdout is passed
through, so the last stdout line is the result JSON. Per-run records (host,
result, spans) land in .bench_out/. Exits non-zero, printing no result, when
the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; True on success."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry configuring next time
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return subprocess.run([EXE, "--self-test"], timeout=RUN_TIMEOUT_S).returncode

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out-dir", OUT]
    # Set-up time counts from the executable's spawn (same monotonic
    # clock as its steady_clock).
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    out = r.stdout.decode(errors="replace")
    if r.returncode != 0:
        sys.stderr.write(out)
        print("e2ebench: run failed with code %d" % r.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
