#!/usr/bin/env python3
"""Builds mobipriv-serve and the benchmark harness from source, then runs
one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to stderr; the harness prints its result as the last
line of stdout. Artifacts land in $CARGO_TARGET_DIR (default
`.bench_build`), run records under `perfbench/out/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.stderr.write("perfbench: build failed: cargo %s\n" % " ".join(args))
        sys.exit(2)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build(["-p", "mobipriv-service", "--bin", "mobipriv-serve"], target)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    release = os.path.join(target, "release")
    harness = os.path.join(release, "mobipriv-perfbench")
    command = [
        harness,
        "--serve", os.path.join(release, "mobipriv-serve"),
        "--root", ROOT,
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
