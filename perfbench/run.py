#!/usr/bin/env python3
"""Build and run the cbip end-to-end benchmark.

One workload per call, from the root of a checkout:

    python3 perfbench/run.py --workload philo --seed 1 --seconds 30 --trace 0

builds the repository's library and the perfbench program into
.bench_build/perfbench (the first call compiles everything; later calls only
check timestamps), then runs it. --seconds defaults to BENCHMARK.json's
run_seconds. The last line of stdout is the program's JSON result.

Steadiness self-check: for every workload in BENCHMARK.json, two sets of ten
runs of the same build, each run with its own seed and run_seconds long,
printing every end-to-end metric's spread and the drift between the sets'
medians against the metric's bound:

    python3 perfbench/run.py --steadiness
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETS = 2
RUNS = 10


def build():
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: the repository's CMakeLists.txt and sources are missing; "
                 "run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Concurrent invocations share one build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=sys.stderr, check=True)
            subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                           stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            sys.exit(f"perfbench: build failed: {e}")
    return os.path.join(BUILD, "perfbench")


def run_once(exe, workload, seed, seconds, trace):
    """Runs the program once; returns (parsed JSON result, host-probe line)."""
    out = subprocess.run([exe, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    probe = next((l for l in lines if "host.alu_probe_ms" in l), "")
    return json.loads(lines[-1]), probe


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def steadiness(exe):
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    log = os.path.join(ROOT, ".bench_build", f"steadiness-{int(time.time())}.json")
    raw = {}
    ok = True
    for workload in workloads:
        sets = []
        for k in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for i in range(RUNS):
                seed = 100 * k + i + 1
                result, probe = run_once(exe, workload, seed, seconds, 0)
                if not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: output check failed")
                raw.setdefault(workload, []).append({"set": k, "seed": seed,
                                                     "result": result, "probe": probe})
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{workload} set {k} seed {seed} {probe.strip('# ')}", flush=True)
            sets.append(values)
        with open(log, "w") as f:
            json.dump(raw, f, indent=1)
        print(f"\n{workload}: {RUNS} runs x {SETS} sets, {seconds} s each")
        print(f"  {'metric':24} {'median':>14} {'spread':>8} {'drift':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            base = statistics.median(sets[0][name])
            for k, per_metric in enumerate(sets):
                values = per_metric[name]
                med = statistics.median(values)
                sp = spread(values)
                change = (med - base) / base
                drift = change if m["better"] == "lower" else -change
                verdict = "ok"
                if sp > bound:
                    verdict = "SPREAD"
                elif drift > bound:
                    verdict = "DRIFT"
                elif sp > bound / 3:
                    verdict = "ok (spread > bound/3)"
                ok = ok and not verdict.isupper()
                print(f"  {name:24} {med:14.6g} {sp:8.3f} {drift:8.3f} {bound:6.2f}  "
                      f"set {k}: {verdict}")
    print(f"\nraw results: {log}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    args = p.parse_args()
    if args.steadiness == bool(args.workload):
        p.error("give either --workload or --steadiness")
    exe = build()
    if args.steadiness:
        return steadiness(exe)
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    sys.stdout.flush()
    rc = subprocess.run([exe, "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(seconds), "--trace", str(args.trace)]).returncode
    return rc if rc > 0 else (1 if rc < 0 else 0)


if __name__ == "__main__":
    sys.exit(main())
