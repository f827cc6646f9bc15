#!/usr/bin/env python3
"""Builds the vodcache benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_lfu --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests, tiny scale

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/, both
relative to the repository root.  Build output goes to stderr; vodbench's
stdout is passed through unchanged, so its last line is the result JSON.
Exits nonzero, without a result, when the repository's sources are absent.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_lfu", "scale_1m", "shadow_matrix", "churn_storm"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(cmd)}")


def build(*targets):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_logged(["cmake", "--build", build_dir, "--target", *targets, "-j", jobs])
    return build_dir


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources and build file, for checkouts
    without git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(base, f) for f in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--days", type=int)
    parser.add_argument("--users", type=int)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at the repository root {ROOT}; nothing to build")

    if args.test:
        build_dir = build("perfbench_test", "vodbench")
        sys.exit(subprocess.run(["ctest", "--test-dir", build_dir,
                                 "--output-on-failure"]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build_dir = build("vodbench")
    cmd = [os.path.join(build_dir, "vodbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    for flag in ("threads", "days", "users"):
        if getattr(args, flag) is not None:
            cmd += [f"--{flag}", str(getattr(args, flag))]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
