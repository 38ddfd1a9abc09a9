#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

    python3 perfbench/run.py --workload syscall_storm --seed 1 --seconds 20 --trace 0

Builds perfbench/rrbench.exe with dune from the sources of the checkout
this file sits in, then runs it from the checkout root with the same
arguments.  The last line of standard output is the result JSON
(README.md in this directory describes it).  Without the repository's
sources beside it the script exits non-zero and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/rrbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "rrbench.exe")
RUN_TIMEOUT_S = 170


def main():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"run.py: {need} is missing; run from a checkout of the repository")
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    try:
        proc = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
