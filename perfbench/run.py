#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 42 --seconds 15 --trace 0

Builds perfbench/main.exe from source with dune (inside the checkout, with
dune's shared cache off), then runs it with the same arguments.  The last
line of standard output is the result object; build messages go to
standard error.  Exits non-zero, printing no result, when the tree is not a
full checkout of the repository or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} is missing; run from the root of a full checkout",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
