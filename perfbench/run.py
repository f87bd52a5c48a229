#!/usr/bin/env python3
"""Build and run one benchmark run of the PAWS loop.

    python3 perfbench/run.py --workload <serve_mix|stream_refit|llc_cycle> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark crate is built in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then run under a wall-clock
limit; a run that outlives it is killed and reported as failed (exit 124).
The last stdout line is the result object; the line before it is the full
record (`record {...}`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_LIMIT_S = 850
RUN_LIMIT_S = 175


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Stop at the checkout: a repository above it is not its commit.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_LIMIT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "paws-perfbench")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--git-sha", git_sha()],
            env=env,
            timeout=RUN_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s and was killed", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
