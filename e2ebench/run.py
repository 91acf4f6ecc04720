#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

    python3 e2ebench/run.py --workload mixed_open --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root.  The daemon, library and load generator
are built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build); each run gets a scratch directory there, removed
afterwards.  The load generator's last stdout line is the result object;
build output goes to stderr.  The exit code is non-zero when the build
fails or a correctness gate fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mixed_open", "iterative_closed")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build(targets):
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs, "--target"] + targets,
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return bdir


def selftest():
    bdir = build(["e2e_selftest"])
    rc = subprocess.run([os.path.join(bdir, "e2e_selftest")]).returncode
    rc |= subprocess.run(
        [sys.executable, "-B", "-m", "unittest", "-q", "test_compare"], cwd=HERE
    ).returncode
    return rc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        return selftest()
    if a.workload is None:
        ap.error("--workload is required")
    bdir = build(["ektelo_served", "e2e_loadgen"])
    work = os.path.join(
        bdir, "runs", "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    cmd = [
        os.path.join(bdir, "e2e_loadgen"),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--served", os.path.join(bdir, "ektelo", "ektelo_served"),
        "--workdir", work,
    ]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
