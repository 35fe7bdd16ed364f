#!/usr/bin/env python3
"""Builds and runs the fixed-work GTPQ serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload in turn, each report ending in its
own JSON line, and exits non-zero if any run did.

The first call configures and builds perfbench/ (the repository library
plus gtpq_perfbench, Release) into $CARGO_TARGET_DIR/perfbench, which
defaults to .bench_build/perfbench; later calls only re-check the build.
Build output goes to stderr, so the last stdout line is the JSON result
of gtpq_perfbench. The exit code is 0 when every operation was verified,
non-zero on a wrong answer, a failed build or bad arguments.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["xmark-logical", "wire-read", "live-update", "cluster-route"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def source_rev():
    """The git revision when the checkout is a git repository, and a
    digest of the sources the binary is built from either way."""
    rev = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                                  "HEAD"], capture_output=True, text=True)
            if git.returncode == 0:
                rev = "git:" + git.stdout.strip() + ","
        except OSError:
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return rev + "src-sha1:" + digest.hexdigest()[:12]


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        rc = max(rc, subprocess.run([
            os.path.join(out_dir, "gtpq_perfbench"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--work-dir", work_dir, "--source-rev", source_rev(),
        ]).returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
