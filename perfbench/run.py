#!/usr/bin/env python3
"""Build and run the LCMP simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles ../src) as a Release build under .bench_build/perfbench, then runs
the perfbench binary. Build output goes to stderr; the binary's stdout
passes through, so its last line is the result JSON. Exits non-zero,
printing no result, if the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run(cmd):
    """Runs a build step with its output on stderr; exits 1 on failure."""
    rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        print("perfbench: '%s' failed with exit code %d" % (" ".join(cmd), rc), file=sys.stderr)
        sys.exit(1)


def git_head():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + ["--git-head", git_head()]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
