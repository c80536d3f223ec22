#!/usr/bin/env python3
"""Steadiness tool for the simulator benchmark.

    python3 simbench/steady.py [--workload W]...

Runs each workload (default: all) on seeds 1-10 through
simbench/run.py, then runs the same ten seeds again as an A/A check of
the same build. It prints for every end-to-end metric each set's
median, quartiles (statistics.quantiles(n=4)) and spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json, and
the shift of the second set's median in the metric's worse direction.

The modelled-GPU metrics (sim_cycles, reused_warp_insts,
gpu_energy_uj) must repeat exactly for each seed across the two sets,
and the share of failed operations must be identical in both.

Run from the root of a checkout; run length comes from
BENCHMARK.json. Exit status 0 when every spread (setup_s excepted) and
every shift is within its bound and both checks hold; 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SEEDS = range(1, 11)
DETERMINISTIC = ("sim_cycles", "reused_warp_insts", "gpu_energy_uj")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(workload, seconds, label):
    results = []
    for seed in SEEDS:
        r = run_once(workload, seed, seconds)
        results.append(r)
        print(f"  {label} {workload} seed {seed}: "
              f"cpu_s {r['metrics']['cpu_s']['value']:.4f} "
              f"attempted {r['attempted']} failed {r['failed']} "
              f"correct {r['correct']}", flush=True)
    return results


def summarize(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def worse_shift(a, b, better):
    """Relative change from median a to b in the worse direction."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / a
    return change if better == "lower" else -change


def check_workload(workload, spec):
    """Run both sets on one workload and print its table; True when
    every check holds."""
    seconds = spec["run_seconds"]
    sets = [run_set(workload, seconds, label) for label in "AB"]
    ok = True
    print(f"\n{workload}: seeds {SEEDS[0]}-{SEEDS[-1]} twice, "
          f"{seconds} s each")
    print(f"  {'metric':<20} {'A median':>12} {'A q1':>12} {'A q3':>12} "
          f"{'A spread':>8} {'B median':>12} {'B spread':>8} "
          f"{'shift':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = (summarize(s, name) for s in sets)
        shift = worse_shift(a["median"], b["median"], m["better"])
        line = (f"  {name:<20} {a['median']:>12.6g} {a['q1']:>12.6g} "
                f"{a['q3']:>12.6g} {a['spread']:>8.4f} "
                f"{b['median']:>12.6g} {b['spread']:>8.4f} "
                f"{shift:>+8.4f} {bound:>6}")
        if name != "setup_s" and max(a["spread"], b["spread"]) > bound:
            ok = False
            line += "  SPREAD OVER BOUND"
        if shift > bound:
            ok = False
            line += "  SHIFT OVER BOUND"
        print(line)

    for name in DETERMINISTIC:
        differ = [seed for seed, ra, rb in zip(SEEDS, *sets)
                  if ra["metrics"][name]["value"]
                  != rb["metrics"][name]["value"]]
        print(f"  {name} repeats exactly per seed: "
              + ("yes" if not differ else f"NO, seeds {differ}"))
        ok = ok and not differ

    shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
              for s in sets]
    print(f"  failed share per set: {shares}")
    if shares[0] != shares[1] or not all(r["correct"] for s in sets
                                         for r in s):
        ok = False
        print("  FAILED SHARE DIFFERS OR A RUN WAS INCORRECT")
    return ok


def main():
    with open(SPEC) as spec_file:
        spec = json.load(spec_file)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    results = [check_workload(w, spec) for w in args.workload or names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
