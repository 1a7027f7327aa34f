#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tran_ring|spec_sweep|daemon_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --reference   # regenerate the ring reference

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is
reused by later runs. The last line of stdout is the JSON result of
the workload; see perfbench/README.md for the metrics.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "data", "ring_reference.json")
BUILD_TIMEOUT_S = 840


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd, timeout):
    """Runs a build step; on failure shows its output on stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(3)


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
              BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def git_revision():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["tran_ring", "spec_sweep", "daemon_mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reference", action="store_true",
                    help="rerun the six Table 1 shapes at a 0.1 ps step "
                         "cap and rewrite %s" %
                         os.path.relpath(REFERENCE, ROOT))
    args = ap.parse_args()
    if not args.reference and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if args.reference:
        cmd = [binary, "--reference-out", REFERENCE,
               "--command", "python3 perfbench/run.py --reference",
               "--revision", git_revision()]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--ref", REFERENCE]
        if args.trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # The measured window plus set-up, warm-up and the last turn or round,
    # which ends after the window does. The reference run has no window.
    timeout = None if args.reference else args.seconds * 2 + 120
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %.0f s\n" % timeout)
        return 4


if __name__ == "__main__":
    sys.exit(main())
