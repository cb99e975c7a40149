#!/usr/bin/env python3
"""Same-session A/B of two git revisions on one perfbench workload.

Usage, from anywhere inside the repository:

    python3 scripts/ab.py <rev-a> <rev-b> --workload <name> \
        [--pairs 6] [--seed 1] [--seconds 10]

Each revision is exported (`git archive`) to `.ab/a` and `.ab/b` under the
repository root: paths of equal length, so neither build gets a different
path baked in. Each side builds perfbench into its own CARGO_TARGET_DIR
and runs with its own --work-dir, both inside its export. The script then
runs P pairs through each side's own `perfbench/run.py`, alternating which
side goes first (A B, B A, A B, ...), so drift on the host falls on both.

For every end-to-end metric of BENCHMARK.json it prints each pair, both
medians, the ratio B/A of the medians and how many pairs B won. It exits
with status 1 when a deterministic metric (egress_ratio, agg_rel_error,
failed_share) differs between any two runs, and 2 when a run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"],
    capture_output=True,
    text=True,
    check=True,
    cwd=os.path.dirname(os.path.abspath(__file__)),
).stdout.strip()
AB_DIR = os.path.join(ROOT, ".ab")
DETERMINISTIC = ("egress_ratio", "agg_rel_error", "failed_share")


def export(rev, slot):
    """Export `rev` to .ab/<slot>, replacing an export of another commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    ).stdout.strip()
    path = os.path.join(AB_DIR, slot)
    stamp = os.path.join(path, ".ab_commit")
    if os.path.exists(stamp) and open(stamp).read().strip() == commit:
        return path, commit
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE, cwd=ROOT)
    subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"ab: git archive {rev} failed")
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return path, commit


def side_env(path):
    return dict(os.environ, CARGO_TARGET_DIR=os.path.join(path, ".bench_build"))


def build(path):
    manifest = os.path.join(path, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=path, env=side_env(path)).returncode != 0:
        sys.exit(f"ab: build failed in {path}")


def run(path, args):
    """One run of the side at `path`: its metrics, from the result line and
    the log's `metric` lines."""
    cmd = [
        sys.executable,
        os.path.join(path, "perfbench", "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--work-dir", os.path.join(path, ".bench_work"),
    ]
    proc = subprocess.run(cmd, cwd=path, env=side_env(path), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"ab: run failed in {path} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metric":
            metrics.setdefault(parts[1], float(parts[2]))
    metrics.setdefault("failed_share", result["failed"] / max(result["attempted"], 1))
    metrics["correct"] = result["correct"]
    return metrics


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    sides = {}
    for slot, rev in (("a", args.rev_a), ("b", args.rev_b)):
        path, commit = export(rev, slot)
        build(path)
        sides[slot] = path
        print(f"# {slot.upper()} = {rev} ({commit[:12]}) in {path}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} pairs={args.pairs}")

    runs = {"a": [], "b": []}
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for slot in order:
            runs[slot].append(run(sides[slot], args))
        a, b = runs["a"][-1], runs["b"][-1]
        cells = [f"{m['name']} {a[m['name']]:.6g} -> {b[m['name']]:.6g}" for m in end_to_end]
        print(f"pair {i + 1} ({''.join(order).upper()}): " + ", ".join(cells))

    print(f"{'metric':<16} {'median A':>14} {'median B':>14} {'B/A':>8} {'B won':>6}")
    for m in end_to_end:
        name = m["name"]
        va = [r[name] for r in runs["a"]]
        vb = [r[name] for r in runs["b"]]
        ma, mb = statistics.median(va), statistics.median(vb)
        ratio = mb / ma if ma else float("nan")
        better = (lambda x, y: x > y) if m["better"] == "higher" else (lambda x, y: x < y)
        won = sum(better(y, x) for x, y in zip(va, vb))
        print(f"{name:<16} {ma:>14.6g} {mb:>14.6g} {ratio:>8.4f} {won:>3}/{args.pairs}")

    status = 0
    if not all(r["correct"] for r in runs["a"] + runs["b"]):
        print("FAILED: a run's own checks failed")
        status = 2
    for name in DETERMINISTIC:
        seen = {repr(r.get(name)) for r in runs["a"] + runs["b"]}
        if len(seen) > 1:
            print(f"DIFFERS: {name} took {sorted(seen)}")
            status = status or 1
        else:
            print(f"identical: {name} = {seen.pop()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
