#!/usr/bin/env python3
"""Builds and runs the dynsum end-to-end benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 10 --trace 0

Workloads: cold-start, serve-read, serve-edit, batch-clients.  --trace 1
runs the traced per-layer replay instead of the end-to-end measurement.
--smoke shrinks every workload to a tiny program and a short window.

The first run configures and builds perfbench/ (the dynsum sources under
src/ plus the benchmark program) into .bench_build/; later runs only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# A run that does not build must end within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return False
        if r.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def source_id():
    """The git commit of the sources, or a digest of src/ and perfbench/
    when the checkout is not a git repository."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=10, text=True)
        if r.returncode == 0 and r.stdout.strip():
            return "git " + r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree sha256 " + digest.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cold-start", "serve-read", "serve-edit",
                            "batch-clients"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    if not build():
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--source", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
