#!/usr/bin/env python3
"""Build and run the filterscope end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload generate|analyze|serve|history \
        --seed N --seconds S --trace 0|1

Builds the `filterscope` binary and the `perfbench` binary from source
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), then
runs `perfbench`, whose last stdout line is the JSON result. Build output
goes to stderr. Exits non-zero without a result when either build fails.
"""

import os
import shutil
import signal
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "filterscope"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench, "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    runner = os.path.join(target, "release", "perfbench")
    binary = os.path.join(target, "release", "filterscope")
    cmd = [runner, *sys.argv[1:], "--filterscope", binary]
    # Its own session, so a timeout can stop the `filterscope serve`
    # children along with it.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(os.path.join(root, ".bench_work"), ignore_errors=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
