#!/usr/bin/env python3
"""Build and run the wire-level benchmark of the phoenix compile service.

    python3 wirebench/run.py --workload vqa_iterate --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (and the library, from the repository's own CMake project) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs rebuild only what changed. Build output goes to a log file there,
so the last line of stdout is the benchmark's JSON result. Traced runs
(--trace 1) write their chrome://tracing file into the same directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "wirebench"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("wirebench: build failed, see %s\n" % log_path)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["vqa_iterate", "warm_replay", "heavyhex_checked"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "wirebench")
    if not build(build_dir):
        return 2
    cmd = [os.path.join(build_dir, "wirebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", build_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
