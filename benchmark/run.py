#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload <dgemm|ozaki|serve-decode|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo (offline, release) into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset, and runs with the repository root as
its working directory. Its standard output passes through unchanged: the
last line is the JSON result. The exit code is the binary's, or 1 when the
build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "benchmark", "Cargo.toml")


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(ROOT, target, "release", "me-benchmark")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
