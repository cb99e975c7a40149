#!/usr/bin/env python3
"""Build the AdaEdge benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <online|fleet|link|offline> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the checkout root), then
run from the checkout root with its scratch files under .bench_work. The
binary prints a log and, as its last line, one JSON result object; this
script passes its output and exit code through. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run measures for --seconds plus set-up and checks; stop a hung one well
# inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "adaedge-perfbench")
    cmd = [binary, "--work-dir", os.path.join(ROOT, ".bench_work")] + argv
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
