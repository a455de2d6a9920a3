#!/usr/bin/env python3
"""A/B speed comparison: alternate perfbench runs of a base and this tree.

Usage:
    perfbench_ab.py --base REV [--workload W|all] [--seed N] [--pairs K]

Compares the simulator at git revision REV (the base) with the working
tree this script lives in (the change). REV is checked out with
``git worktree add --detach`` under .bench_build/ab/<sha>, and kept
there so that the next comparison against it rebuilds incrementally;
``git worktree remove .bench_build/ab/<sha>`` deletes it. Each tree's
perfbench/ is built in Release into that tree's own
.bench_build/perfbench, where perfbench/run.py builds too.

For each workload the script makes K pairs of timed runs
(``tmo_perfbench --mode timed``), one of each side per pair, and flips
which side runs first from one pair to the next, so that a slow spell
on a shared machine hits both sides alike rather than one old figure.
It prints, per side, the fastest and the median host_sim_s_per_wall_s
with the quartiles, the change/base ratio of each, the pairs the
change won, and whether every run of both sides printed one digest.
A run with a failed host or an OOM event counts as failed, not as a
speed sample. It writes nothing under perfbench/. Building and running
tmo_perfbench are perfbench_digest_check.py's build() and run().

Exit codes:
    0  every run succeeded and every digest matched
    1  a digest differs between runs, or a run failed
    2  bad invocation, an unknown revision, or a failed build
"""

import argparse
import statistics
import subprocess
import sys

from perfbench_digest_check import ROOT, build, fail, run

AB_DIR = ROOT / ".bench_build" / "ab"
WORKLOADS = ("web_serving", "memory_bound", "wide_fleet")


def git(*args):
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, check=False)
    except OSError as err:
        fail(f"cannot run git: {err}", 2)


def base_tree(rev):
    """The base revision's worktree, added on first use."""
    proc = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    if proc.returncode != 0:
        fail(f"unknown revision: {rev}", 2)
    sha = proc.stdout.strip()
    tree = AB_DIR / sha
    if not (tree / ".git").exists():
        AB_DIR.mkdir(parents=True, exist_ok=True)
        proc = git("worktree", "add", "--detach", str(tree), sha)
        if proc.returncode != 0:
            fail(f"git worktree add failed: {proc.stderr.strip()}", 2)
    return sha, tree


def timed_run(binary, workload, seed):
    """One timed run: (host_sim_s_per_wall_s as perfbench/run.py
    computes it, digest), or (None, why the run failed)."""
    result, why = run(binary, workload, seed, "timed")
    if why:
        return None, why
    try:
        speed = result["hosts"] * result["sim_s"] / result["run_s"]
        return (speed, result["digest"]), None
    except (KeyError, TypeError, ZeroDivisionError):
        return None, "tmo_perfbench printed no usable JSON result"


def compare(binaries, workload, seed, pairs):
    """Alternate @pairs pairs of runs; print the verdict, return the
    number of problems (failed runs and digest mismatches)."""
    speeds = {"base": [], "change": []}
    digests = set()
    problems = 0
    wins = 0
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        this_pair = {}
        for side in order:
            result, error = timed_run(binaries[side], workload, seed)
            if error:
                print(f"  pair {pair + 1} {side} run FAILED: {error}")
                problems += 1
                continue
            speed, digest = result
            speeds[side].append(speed)
            digests.add(digest)
            this_pair[side] = speed
        if len(this_pair) == 2 and this_pair["change"] > this_pair["base"]:
            wins += 1

    print(f"== {workload}  seed {seed}  {pairs} pair(s), order flipped "
          "each pair")
    print(f"  {'host_sim_s_per_wall_s':<22} {'fastest':>10} {'median':>10}"
          "  [first quartile, third quartile]")
    for side, values in speeds.items():
        if not values:
            print(f"  {side:<22} {'-':>10} {'-':>10}")
            continue
        quartiles = statistics.quantiles(values, n=4) \
            if len(values) > 1 else values * 3
        print(f"  {side:<22} {max(values):>10.6g} "
              f"{statistics.median(values):>10.6g}"
              f"  [{quartiles[0]:.6g}, {quartiles[2]:.6g}]")
    if speeds["base"] and speeds["change"]:
        fastest = max(speeds["change"]) / max(speeds["base"])
        median = (statistics.median(speeds["change"])
                  / statistics.median(speeds["base"]))
        print(f"  {'change / base':<22} {fastest:>9.3f}x {median:>9.3f}x")
        print(f"  change faster in {wins} of {pairs} pairs")
    if len(digests) > 1:
        problems += 1
        print(f"  digests DIFFER: {', '.join(sorted(digests))}")
    elif digests:
        print(f"  digests: every run printed {digests.pop()}")
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="Exit 0: all runs ok and digests equal; 1: a digest "
               "differs or a run failed; 2: bad invocation or build.")
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (default 42)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of timed runs per workload "
                             "(default 10)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha, tree = base_tree(args.base)
    binaries = {"base": build(tree), "change": build(ROOT)}
    print(f"base {sha[:12]} ({tree}) vs change {ROOT}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    problems = sum(compare(binaries, workload, args.seed, args.pairs)
                   for workload in workloads)
    if problems:
        print(f"perfbench_ab: {problems} failed run(s) or digest "
              "mismatch(es)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
