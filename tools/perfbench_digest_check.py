#!/usr/bin/env python3
"""Gate: the end-to-end benchmark still simulates what it recorded.

Usage:
    perfbench_digest_check.py

Configures and builds perfbench/ in Release into .bench_build/perfbench,
where perfbench/run.py builds too, then runs
``tmo_perfbench --mode check`` once per workload and seed that
perfbench/RESULTS.json records: every workload on its default and its
held-out seed. A check run is a normal run with the invariant auditor
at every fleet barrier.

A change that only claims speed must leave every digest alone, so the
gate fails, naming the run, unless each run exits 0, prints the digest
RESULTS.json holds for its workload and seed, and reports zero audit
violations.

Exit codes:
    0  every digest matches and no run saw an audit violation
    1  a digest moved, an audit violation, or a run failed
    2  bad invocation, unreadable RESULTS.json, or a failed build

build() and run() are how tools/ builds and runs tmo_perfbench;
perfbench_ab.py imports them.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_FILE = ROOT / "perfbench" / "RESULTS.json"
RUN_TIMEOUT_S = 300


def fail(message, code):
    print(f"{Path(sys.argv[0]).stem}: {message}", file=sys.stderr)
    sys.exit(code)


def recorded_digests():
    """[(workload, seed, digest)] from RESULTS.json, in file order."""
    try:
        results = json.loads(RESULTS_FILE.read_text())
        return [(workload, int(seed), entry["digest"])
                for workload, data in results["workloads"].items()
                for seed, entry in data["seeds"].items()]
    except (OSError, ValueError, KeyError, TypeError) as err:
        fail(f"cannot read digests from {RESULTS_FILE}: {err!r}", 2)


def build(tree=ROOT):
    """Build @tree's perfbench/ in Release into its
    .bench_build/perfbench, where perfbench/run.py builds too; return
    the runner's path. Exit 2 if the build fails."""
    build_dir = tree / ".bench_build" / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(tree / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "tmo_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries the verdicts.
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail(f"build failed: {' '.join(cmd)}", 2)
    return build_dir / "tmo_perfbench"


def run(binary, workload, seed, mode):
    """One tmo_perfbench run: (its JSON result, None), or (None, why it
    failed). As in perfbench/run.py, a run with a failed host or an OOM
    event failed."""
    env = dict(os.environ)
    env.pop("TMO_FORCE_TRACE", None)  # traced hosts are not the recording
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, f"no result within {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"tmo_perfbench exited with {proc.returncode}"
    try:
        result = json.loads(lines[-1])
        if result["failed_hosts"]:
            return None, f"{result['failed_hosts']} host(s) failed"
        if result["oom_events"]:
            return None, f"{result['oom_events']} OOM event(s)"
    except (ValueError, KeyError, TypeError):
        return None, "tmo_perfbench printed no usable JSON result"
    return result, None


def check_run(binary, workload, seed, expected):
    """None when the check run matches, else why it does not."""
    result, why = run(binary, workload, seed, "check")
    if why:
        return why
    if result.get("digest") != expected:
        return (f"digest {result.get('digest')} != {expected} recorded in "
                "perfbench/RESULTS.json: the simulated results moved")
    if result.get("audit_violations") != 0:
        return (f"{result.get('audit_violations')} invariant audit "
                "violation(s)")
    return None


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()

    runs = recorded_digests()
    binary = build()
    failures = 0
    for workload, seed, expected in runs:
        why = check_run(binary, workload, seed, expected)
        verdict = "ok" if why is None else f"FAILED: {why}"
        print(f"{workload} seed {seed}: {verdict}")
        failures += why is not None
    if failures:
        print(f"perfbench digest gate: {failures} of {len(runs)} check "
              "runs failed", file=sys.stderr)
        return 1
    print(f"perfbench digest gate: all {len(runs)} check runs match "
          "perfbench/RESULTS.json with 0 audit violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
