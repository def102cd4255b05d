#!/usr/bin/env python3
"""Builds the benchmark and the `air` CLI from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload verify-enum --seed 1 --seconds 20 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits 3 without a result when a build fails,
otherwise with the benchmark's own exit code (0 when every verdict,
response and report was correct).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    for cmd in (
        build + [os.path.join(HERE, "Cargo.toml")],
        build + [os.path.join(ROOT, "Cargo.toml"), "-p", "air-cli"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--air", os.path.join(release, "air"),
        "--temp-dir", os.path.join(target, "perfbench-tmp"),
    ]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
