#!/usr/bin/env python3
"""Builds and runs the amici serving benchmark.

Run from the root of a checkout:

    python3 servebench/run.py --workload warm_local --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --selftest

The first call configures and builds the amici library and the benchmark
into .bench_build/servebench (later calls rebuild only what changed). The
benchmark's last stdout line is its JSON result; build output goes to
stderr. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")


def build(targets):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] +
                 targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git repository
    of its own."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if (top.returncode != 0 or head.returncode != 0 or
            os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT)):
        return "unknown"
    return head.stdout.strip()


def source_digest():
    """SHA-256 over the library sources, which identifies the code under
    test even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["servebench_selftest"]):
            return 1
        return subprocess.run(
            [os.path.join(BUILD_DIR, "servebench_selftest")]).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("amici sources not found next to servebench/", file=sys.stderr)
        return 1
    if not build(["servebench"]):
        return 1
    work_dir = os.path.join(ROOT, ".bench_build", "servebench-work")
    command = [
        os.path.join(BUILD_DIR, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--git-sha", git_sha(),
        "--src-digest", source_digest(),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
