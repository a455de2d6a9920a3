#!/usr/bin/env python3
"""End-to-end benchmark of the TMO simulator (README.md here explains it).

    python3 perfbench/run.py                    # every workload, traced
    python3 perfbench/run.py --workload web_serving --seed 42 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record           # rewrite RESULTS.json

The first invocation builds the runner from ../src with CMake (Release)
into .bench_build/perfbench. An invocation then makes, per workload, one
check run, timed runs until --seconds have passed, and with --trace 1
one traced run, each in its own process. It prints every metric by name
and unit and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "tmo_perfbench"
SPANS_DIR = BUILD_DIR / "spans"
RESULTS_FILE = HERE / "RESULTS.json"

WORKLOADS = ("web_serving", "memory_bound", "wide_fleet")
DEFAULT_SEED = 42
# Not used while the benchmark was tuned: re-check a claim on it.
HELD_OUT_SEED = 7919

# Timed runs per invocation: at least this many, then more until
# --seconds of measuring have passed.
MIN_TIMED_RUNS = 5
# Start no timed run after this long, so that an invocation ends well
# inside three minutes even on a slow machine.
MEASURE_CEILING_S = 100
RUN_TIMEOUT_S = 150


def metric_units(kind):
    """Name -> unit of the @kind metrics BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


END_TO_END = metric_units("end_to_end")
PER_LAYER = metric_units("per_layer")

# Tail metrics: the percentile they took and their sample count.
TAILS = {
    "host.epoch_ms.tail": ("host.epoch_ms.tail_q", "host.epochs"),
    "mem.reclaim_us.tail": ("mem.reclaim_us.tail_q", "mem.reclaim_calls"),
}

SIMULATED = ("requests_completed", "requests_dropped", "p99_us",
             "savings_pct", "faults", "oom_events", "zswpout", "tier_demoted")


class BenchError(Exception):
    """Ends the invocation with a message and no result line."""


def build():
    """Configure once, then build the runner incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources in {ROOT / 'src'}; "
                         "run from a checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR),
                  "--target", "tmo_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries the results.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            raise BenchError(f"build failed: {err}") from err
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)} "
                             f"exited with {proc.returncode}")


def run_child(workload, seed, mode, spans=None):
    """One run in its own process: its JSON line, or {'error': ...}."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    # The simulator traces every host while this is set.
    env.pop("TMO_FORCE_TRACE", None)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env, check=False)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"no result in {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "error": f"exited with {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"mode": mode, "error": "printed no JSON result"}


def problem(run, reference):
    """Why @run failed, or None."""
    if "error" in run:
        return run["error"]
    if run["failed_hosts"]:
        return f"{run['failed_hosts']} host(s) failed"
    if run["digest"] != reference:
        return f"digest {run['digest']} is not {reference}"
    if run["oom_events"]:
        return f"{run['oom_events']} OOM events"
    if run["audit_violations"]:
        return f"{run['audit_violations']} invariant violations"
    if run["mode"] == "traced" and run["layers"]["obs.events_dropped"]:
        return "the trace rings dropped events"
    return None


def sane(workload, run):
    """The simulated results show the work the workload exists for."""
    if workload == "web_serving":
        return run["requests_completed"] > 0
    if workload == "memory_bound":
        return (run["requests_completed"] == 0 and run["faults"] > 0
                and run["zswpout"] > 0 and run["tier_demoted"] > 0)
    return run["requests_completed"] == 0


def ratio(part, whole):
    return part / whole if whole else 0.0


def measure(workload, seed, seconds, trace):
    """The check run, timed runs for @seconds and the traced run."""
    check = run_child(workload, seed, "check")
    timed = []
    begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - begin
        if len(timed) >= MIN_TIMED_RUNS and elapsed >= seconds:
            break
        if timed and elapsed >= MEASURE_CEILING_S:
            break
        timed.append(run_child(workload, seed, "timed"))
    traced = None
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        traced = run_child(workload, seed, "traced",
                           SPANS_DIR / f"{workload}-{seed}.json")
    return assess(workload, seed, check, timed, traced)


def assess(workload, seed, check, timed, traced):
    """Failure accounting and the metrics of one workload."""
    runs = [check] + timed + ([traced] if traced else [])
    digests = collections.Counter(r["digest"] for r in runs
                                  if "error" not in r)
    reference = digests.most_common(1)[0][0] if digests else None
    failed = [r for r in runs if problem(r, reference)]
    problems = [f"{r['mode']} run: {problem(r, reference)}" for r in failed]
    good = [r for r in timed if r not in failed]
    base = good[0] if good else None
    if base and not sane(workload, base):
        problems.append("simulated results do not show the workload's work")
    out = {
        "workload": workload,
        "seed": seed,
        "digest": reference,
        "attempted": len(runs),
        "failed": len(failed),
        "problems": problems,
        "timed": good,
        "base": base,
        "traced": traced if traced and traced not in failed else None,
        "end_to_end": {},
        "per_layer": {},
    }
    out["correct"] = not problems and base is not None
    if not good:
        return out
    per_run = out["per_run"] = {
        "host_sim_s_per_wall_s":
            [r["hosts"] * r["sim_s"] / r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mib": [r["peak_rss_mib"] for r in good],
    }
    # Neighbours on a shared machine only ever slow a run down, in
    # bursts of seconds: the fastest run is the least disturbed one,
    # and it spreads far less from one invocation to the next than the
    # median does (README.md, "Noise").
    out["end_to_end"] = {
        "host_sim_s_per_wall_s": max(per_run["host_sim_s_per_wall_s"]),
        "setup_s": statistics.median(per_run["setup_s"]),
        "peak_rss_mib": statistics.median(per_run["peak_rss_mib"]),
    }
    run_s = statistics.median(r["run_s"] for r in good)
    out["wall_ns_per_request"] = ratio(run_s * 1e9,
                                       base["requests_completed"])
    if out["traced"]:
        layers = dict(out["traced"]["layers"])
        layers.update({
            "host.build_s": statistics.median(r["build_s"] for r in good),
            "host.start_s": statistics.median(r["start_s"] for r in good),
            "workload.requests_completed": base["requests_completed"],
            "workload.requests_dropped": base["requests_dropped"],
            "workload.ns_per_touch": ratio(run_s * 1e9,
                                           layers["workload.touches"]),
            "workload.us_per_tick": ratio(run_s * 1e6,
                                          layers["workload.ticks"]),
            "wall_ns_per_request": out["wall_ns_per_request"],
            "obs.trace_overhead_pct":
                (out["traced"]["run_s"] / run_s - 1.0) * 100.0,
            "fault.audit_violations": check.get("audit_violations", 0),
        })
        out["layers"] = layers
        out["per_layer"] = {name: layers[name] for name in PER_LAYER}
    return out


def fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def recorded_note(result):
    """Whether the digest matches the one RESULTS.json holds."""
    try:
        recorded = json.loads(RESULTS_FILE.read_text())
        entry = recorded["workloads"][result["workload"]]["seeds"]
        digest = entry[str(result["seed"])]["digest"]
    except (OSError, KeyError, ValueError):
        return "(no digest recorded for this seed)"
    if digest == result["digest"]:
        return "(matches RESULTS.json)"
    return f"(RESULTS.json has {digest}: the simulation moved)"


def print_report(result):
    base = result["base"]
    print(f"== {result['workload']}  seed {result['seed']}")
    if base:
        print(f"{base['hosts']} host(s), {base['sim_s'] / 60:g} simulated "
              f"minutes per run, {base['lanes']} lane(s)")
    print(f"runs attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for line in result["problems"]:
        print(f"  FAILED {line}")
    print(f"digest {result['digest']} {recorded_note(result)}")
    if not base:
        return
    print("simulated: " + "  ".join(f"{k}={fmt(base[k])}"
                                    for k in SIMULATED))
    print(f"end-to-end over {len(result['timed'])} timed runs "
          "(host_sim_s_per_wall_s: the fastest run; setup_s, peak_rss_mib: "
          "the median) [first quartile, median, third quartile]")
    for name, unit in END_TO_END.items():
        values = result["per_run"][name]
        quartiles = statistics.quantiles(values, n=4) \
            if len(values) > 1 else values * 3
        print(f"  {name:<28} {fmt(result['end_to_end'][name]):>12} "
              f"{unit:<9} [{', '.join(fmt(q) for q in quartiles)}]")
    per_request = (fmt(result["wall_ns_per_request"]) + " ns"
                   if base["requests_completed"] else "n/a (no requests)")
    print(f"  {'wall_ns_per_request':<28} {per_request:>12}")
    traced = result["traced"]
    if not traced:
        return
    breakdown = traced["breakdown"]
    run_ms = breakdown["host.run_phase"]["total_ms"]
    print(f"traced breakdown of run {traced['run_id']} "
          f"(run phase {run_ms:.1f} ms):")
    print(f"  {'span':<22} {'count':>8} {'total ms':>11} {'self ms':>11} "
          f"{'self/run':>9}")
    for name, entry in sorted(breakdown.items(),
                              key=lambda item: -item[1]["total_ms"]):
        print(f"  {name:<22} {entry['count']:>8} {entry['total_ms']:>11.1f}"
              f" {entry['self_ms']:>11.1f}"
              f" {100 * entry['self_ms'] / run_ms:>8.1f}%")
    layers = result["layers"]
    print("per-layer:")
    for name, unit in PER_LAYER.items():
        note = ""
        if name in TAILS:
            q_name, n_name = TAILS[name]
            q = layers[q_name]
            label = "max" if q == 1 else f"p{100 * q:g}"
            note = f"  ({label} of {layers[n_name]} samples)"
        print(f"  {name:<28} {fmt(layers[name]):>14} {unit}{note}")


def result_line(results, trace):
    """The result line; metric names get a workload prefix when one
    invocation runs several workloads."""
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for result in results:
        values = result["per_layer"] if trace else result["end_to_end"]
        for name, unit in names.items():
            if name in values:
                key = name if len(results) == 1 \
                    else f"{result['workload']}.{name}"
                metrics[key] = {"value": values[name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def record(seconds):
    """Measure the default and the held-out seed of every workload,
    traced, and write the digests and breakdowns to RESULTS.json."""
    out = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "measured_on": f"{platform.machine()}, {os.cpu_count()} cores, "
                       f"--seconds {seconds:g}",
        "workloads": {},
    }
    correct = True
    for workload in WORKLOADS:
        seeds = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result = measure(workload, seed, seconds, trace=True)
            print_report(result)
            correct = correct and result["correct"]
            base = result["base"] or {}
            seeds[str(seed)] = {
                "digest": result["digest"],
                "simulated": {k: base.get(k) for k in SIMULATED},
                "end_to_end": result["end_to_end"],
                "per_layer": result["per_layer"],
                "breakdown": (result["traced"] or {}).get("breakdown"),
            }
        out["workloads"][workload] = {
            "hosts": base.get("hosts"),
            "sim_minutes": base.get("sim_s", 0) / 60,
            "seeds": seeds,
        }
    RESULTS_FILE.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {RESULTS_FILE}")
    return 0 if correct else 1


def selftest():
    """The benchmark's own tests; exit status 0 when all pass."""
    ok = subprocess.run([str(BINARY), "--selftest"],
                        check=False).returncode == 0
    for workload in WORKLOADS:
        timed = run_child(workload, DEFAULT_SEED, "timed")
        traced = run_child(workload, DEFAULT_SEED, "traced")
        same = ("error" not in timed and "error" not in traced
                and timed["digest"] == traced["digest"])
        print(f"selftest {workload}: traced digest "
              f"{'equals' if same else 'DIFFERS FROM'} timed digest")
        ok = ok and same
        if workload == "wide_fleet" and "error" not in traced:
            # Each host's ring holds a few epochs of events, far fewer
            # than a run records: only counting and clearing it at every
            # barrier keeps the count exact.
            layers = traced["layers"]
            clean = (layers["obs.events_dropped"] == 0
                     and layers["obs.events_recorded"] > 0)
            print(f"selftest wide_fleet: {layers['obs.events_recorded']} "
                  f"trace events counted, {layers['obs.events_dropped']} "
                  "dropped")
            ok = ok and clean
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the TMO simulator.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}, "
                             f"held out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed runs measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also make the traced run and print the "
                             "per-layer metrics")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="measure both seeds and write RESULTS.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.record:
        return record(args.seconds)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, args.trace)
        print_report(result)
        results.append(result)
    print(json.dumps(result_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
