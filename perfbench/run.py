#!/usr/bin/env python3
"""Build the perfbench executable from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Arguments are passed through to perfbench.exe (see perfbench/README.md).
Build output goes to stderr; the benchmark's last stdout line is its JSON
result.  Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def run_timeout(args):
    """Seconds the run may take: twice the measured time, for the traced
    run's extra passes, plus two minutes for set-up and checks."""
    try:
        return 2 * float(args[args.index("--seconds") + 1]) + 120
    except (ValueError, IndexError):
        return 120


def main():
    # No shared dune cache: the build reads and writes inside the
    # checkout only.  The default (dev) profile is the one `dune build`
    # and the tests use.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=run_timeout(sys.argv[1:]))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
