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
with the quartiles, the change/base ratio of each and the pairs the
change won; then the same from the same pairs for the two other
end-to-end metrics of BENCHMARK.json, setup_s and peak_rss_mib, whose
perfbench/run.py value is the median (lower wins), with setup_s
followed by its two parts, build_s and start_s (the FleetSpec::build
and Fleet::start times that tmo_perfbench prints); and whether every
run of both sides printed one digest.
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


# BENCHMARK.json's end-to-end metrics, with setup_s's two parts after
# it, and whether the higher value wins. perfbench/run.py reports the
# fastest run of the first and the median of the others.
METRICS = (("host_sim_s_per_wall_s", True), ("setup_s", False),
           ("build_s", False), ("start_s", False), ("peak_rss_mib", False))


def timed_run(binary, workload, seed):
    """One timed run: ({metric: value as perfbench/run.py computes
    it}, digest), or (None, why the run failed)."""
    result, why = run(binary, workload, seed, "timed")
    if why:
        return None, why
    try:
        metrics = {
            "host_sim_s_per_wall_s":
                result["hosts"] * result["sim_s"] / result["run_s"],
            "setup_s": result["setup_s"],
            "build_s": result["build_s"],
            "start_s": result["start_s"],
            "peak_rss_mib": result["peak_rss_mib"],
        }
        return (metrics, result["digest"]), None
    except (KeyError, TypeError, ZeroDivisionError):
        return None, "tmo_perfbench printed no usable JSON result"


def report(name, higher, values, wins, pairs):
    """Print one metric's rows: per side its fastest run (for the
    metric taken from the fastest run), median and quartiles, then the
    change/base ratios and the pairs the change won."""
    fastest = name == "host_sim_s_per_wall_s"
    print(f"  {name:<22} {'fastest' if fastest else '':>10} "
          f"{'median':>10}  [first quartile, third quartile]")
    for side, sample in values.items():
        if not sample:
            print(f"  {side:<22} {'-':>10} {'-':>10}")
            continue
        quartiles = statistics.quantiles(sample, n=4) \
            if len(sample) > 1 else sample * 3
        best = f"{max(sample):.6g}" if fastest else ""
        print(f"  {side:<22} {best:>10} "
              f"{statistics.median(sample):>10.6g}"
              f"  [{quartiles[0]:.6g}, {quartiles[2]:.6g}]")
    if not (values["base"] and values["change"]):
        return
    median = (statistics.median(values["change"])
              / statistics.median(values["base"]))
    best = (f"{max(values['change']) / max(values['base']):>9.3f}x"
            if fastest else f"{'':>10}")
    print(f"  {'change / base':<22} {best} {median:>9.3f}x")
    verdict = "faster" if fastest else ("higher" if higher else "lower")
    print(f"  change {verdict} in {wins} of {pairs} pairs")


def compare(binaries, workload, seed, pairs):
    """Alternate @pairs pairs of runs; print the verdict, return the
    number of problems (failed runs and digest mismatches)."""
    values = {name: {"base": [], "change": []} for name, _ in METRICS}
    wins = dict.fromkeys(values, 0)
    digests = set()
    problems = 0
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        this_pair = {}
        for side in order:
            result, error = timed_run(binaries[side], workload, seed)
            if error:
                print(f"  pair {pair + 1} {side} run FAILED: {error}")
                problems += 1
                continue
            metrics, digest = result
            for name, value in metrics.items():
                values[name][side].append(value)
            digests.add(digest)
            this_pair[side] = metrics
        if len(this_pair) < 2:
            continue
        for name, higher in METRICS:
            change, base = this_pair["change"][name], this_pair["base"][name]
            if (change > base) if higher else (change < base):
                wins[name] += 1

    print(f"== {workload}  seed {seed}  {pairs} pair(s), order flipped "
          "each pair")
    for name, higher in METRICS:
        report(name, higher, values[name], wins[name], pairs)
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
