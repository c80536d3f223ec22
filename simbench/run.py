#!/usr/bin/env python3
"""Run one workload of the simulator benchmark.

    python3 simbench/run.py --workload table1-grid --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
the `simbench` binary (simbench/CMakeLists.txt compiles src/ and
the figure library from bench/) into $CARGO_TARGET_DIR, default .bench_build;
later runs only check that the build is current. The binary's notes
go to stderr; the last line of stdout is the result object.

setup_s is the binary's CPU time from process start to the first
timed operation. Untraced runs start the binary --setup-only nine
more times and report the median of the ten set-up times.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("table1-grid", "fuzz-diff", "figure-sweep")
SETUP_REPEATS = 9
# A run ends in well under three minutes; kill one that hangs.
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))


def build(out):
    """Configure (once) and build the binary; returns its path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "simbench")


def run_binary(binary, argv):
    """Run the binary; returns its stdout."""
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    return proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("simbench printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"simbench: build failed: {err}", file=sys.stderr)
        return 1

    run_dir = os.path.join(out, "run-" + args.workload)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", run_dir]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setup = last_json(run_binary(binary,
                                             argv + ["--setup-only"]))
                setups.append(setup["metrics"]["setup_s"]["value"])
        result = last_json(run_binary(binary, argv))
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as err:
        print(f"simbench: run failed: {err}", file=sys.stderr)
        return 1

    # Report exactly the metrics BENCHMARK.json names, in its order.
    # Every workload reports each one, a layer it does not exercise as
    # an explicit 0, so a missing, misspelt or mis-united metric fails.
    with open(SPEC) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(measured))
    unknown = sorted(set(measured) - set(units))
    wrong_unit = sorted(name for name in set(units) & set(measured)
                        if measured[name]["unit"] != units[name])
    if missing or unknown or wrong_unit:
        print(f"simbench: metrics not as BENCHMARK.json names them: "
              f"missing {missing}, unknown {unknown}, "
              f"wrong unit {wrong_unit}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: measured[m["name"]] for m in wanted}
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
