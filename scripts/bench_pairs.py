#!/usr/bin/env python3
"""Run perfbench on a parent revision and on the working tree, in pairs.

    python3 scripts/bench_pairs.py PARENT WORKLOAD N [--seed S]
        [--scratch DIR]

1. `git archive`s PARENT into DIR/parent and copies the working tree's
   files (tracked and untracked, not ignored) into DIR/change;
2. builds perfbench in each copy into its own target directory;
3. runs N pairs of `--workload WORKLOAD --trace 0` at BENCHMARK.json's
   `run_seconds`, pair i on seed S + i, the parent first in even pairs
   and the change first in odd ones;
4. prints every result line, then for each end-to-end metric of
   BENCHMARK.json each side's median and quartiles
   (`statistics.quantiles(n=4)`), the change's wins (ties count for
   neither side), and whether the medians differ by more than the
   parent's interquartile range.

Both sides build and run inside DIR, so nothing is written under the
repository's perfbench/. Run it from the repository root; the runs are
serial and each takes about a minute.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def sh(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def snapshot_parent(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], check=True, stdout=subprocess.PIPE)
    sh(["tar", "-x", "-C", dest], input=archive.stdout)


def snapshot_worktree(dest):
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout.split(b"\0")
    for f in filter(None, files):
        path = f.decode()
        if not os.path.isfile(path):
            continue  # deleted in the working tree
        os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
        shutil.copy2(path, os.path.join(dest, path))


def build(src):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(src, "target-perfbench"))
    manifest = os.path.join(src, "perfbench", "Cargo.toml")
    sh(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest], env=env)
    return os.path.join(src, "target-perfbench", "release", "perfbench")


def run(side, binary, cwd, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd + ["--trace", "0"], cwd=cwd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{side} seed {seed}: perfbench exited {out.returncode}")
    line = out.stdout.strip().splitlines()[-1]
    print(f"{side:>6} seed {seed}: {line}", flush=True)
    return json.loads(line)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="parent revision, e.g. HEAD or a commit hash")
    ap.add_argument("workload", help="a workload of BENCHMARK.json")
    ap.add_argument("n", type=int, help="number of pairs")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--scratch", help="directory for both copies (default: a new temp dir)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        sys.exit(f"{args.workload} is not a workload of BENCHMARK.json")
    seconds = manifest["run_seconds"]
    scratch = args.scratch or tempfile.mkdtemp(prefix="pairs-")
    parent_dir, change_dir = os.path.join(scratch, "parent"), os.path.join(scratch, "change")
    for d in (parent_dir, change_dir):
        if os.path.exists(d):
            sys.exit(f"{d} exists; pass an empty --scratch")
    snapshot_parent(args.parent, parent_dir)
    snapshot_worktree(change_dir)
    binaries = {"parent": build(parent_dir), "change": build(change_dir)}
    cwds = {"parent": parent_dir, "change": change_dir}

    results = {"parent": [], "change": []}
    for i in range(args.n):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            results[side].append(
                run(side, binaries[side], cwds[side], args.workload, seed, seconds)
            )

    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        incorrect = sum(not r["correct"] for r in results[side])
        print(f"{side}: {failed} of {attempted} operations failed, {incorrect} runs incorrect")
    print(f"{args.workload}, {args.n} pairs of {seconds} s from seed {args.seed}:")
    for m in manifest["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] for r in results[s]] for s in results}
        med = {s: statistics.median(v) for s, v in vals.items()}
        qs = {s: quartiles(v) for s, v in vals.items()}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"])
        )
        iqr = qs["parent"][1] - qs["parent"][0]
        rel = (med["change"] - med["parent"]) / med["parent"] if med["parent"] else 0.0
        print(
            f"  {name} ({m['unit']}, {m['better']} is better, bound {m['bound']}): "
            f"parent {med['parent']:.6g} [{qs['parent'][0]:.6g}, {qs['parent'][1]:.6g}], "
            f"change {med['change']:.6g} [{qs['change'][0]:.6g}, {qs['change'][1]:.6g}], "
            f"median change {rel:+.2%}, change wins {wins} of {args.n}, "
            f"medians differ by more than the parent's IQR: "
            f"{abs(med['change'] - med['parent']) > iqr}"
        )


if __name__ == "__main__":
    main()
