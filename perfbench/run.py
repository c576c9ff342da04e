#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload broadcast_sparse --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), result stores to a `perfbench-work` directory
inside it. The arguments are passed to the `sgperf` binary, whose last
line of standard output is the JSON result and whose exit code is this
script's exit code (nonzero on a failed build, a censored run or a
failed check).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--bin", "sgperf",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "sgperf")
    work_dir = os.path.join(target, "perfbench-work")
    return subprocess.run([binary, "--work-dir", work_dir, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
