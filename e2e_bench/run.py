#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 e2e_bench/run.py --workload fleet-mixed [--seed N] [--seconds S] [--trace 0|1]

The benchmark crate is built in release mode against the repository's
crates (``cargo build --offline``) into ``$CARGO_TARGET_DIR``, or
``.bench_build`` when that is unset. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. The
exit code is the benchmark's, or the build's when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "e2e_bench", "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print(f"run.py: building the benchmark failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1

    command = [
        os.path.join(target, "release", "e2e-bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
