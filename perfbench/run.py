#!/usr/bin/env python3
"""Builds and runs the epplan benchmark.

    python3 perfbench/run.py --workload <solve-default|serve-steady|serve-churn> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `perfbench` package in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), pins
EPPLAN_THREADS to the number of CPUs this process may run on, and runs
one workload. Traces and serve state go under `.bench_out`. The last
line of standard output is the result as one JSON object; the exit
status is the benchmark's (0 only when every correctness check passed).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-default", "serve-steady", "serve-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# What the program is built from, for the source digest in the stamp.
SOURCE_DIRS = ("crates", "compat", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")
SKIP_DIRS = {"target", ".bench_build", ".bench_out", ".git"}


def source_digest():
    """SHA-256 over the paths and bytes of every source file."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    try:
        threads = len(os.sched_getaffinity(0))
    except AttributeError:
        threads = os.cpu_count() or 1
    env["EPPLAN_THREADS"] = str(threads)
    env["PERFBENCH_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE"] = source_digest()
    exe = os.path.join(target, "release", "epplan-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
