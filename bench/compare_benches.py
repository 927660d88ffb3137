#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_engine.json against the
committed baseline and fail on large throughput regressions.

Usage: bench/compare_benches.py BASELINE_JSON NEW_JSON [--max-regression PCT]

Both files are the merged format emitted by bench/run_benches.sh
({"bench_engine": {...}, "bench_sharded": {...}, "bench_expr": {...},
"bench_dfinder": {...}}). Two tiers of checks:

* Ratio gates (always enforced): same-run A/B ratios — the compiled
  engine over the interpreted one, the adaptive sharded scheduler over
  the static one, compiled D-Finder invariants over tree-walking ones,
  incremental recertification over from-scratch.
  Both sides of each ratio come from one process on one machine, so the
  comparison is meaningful even when the committed baseline was recorded
  on different hardware than the CI runner. A ratio regressing by more
  than the threshold vs the baseline's ratio fails the gate.
* Absolute gates (enforced only when the baseline's recorded context —
  host_name and num_cpus — matches the new file's): raw items_per_second
  of the key engine-step counters. On a context mismatch these are
  reported as SKIP, because cross-machine absolute throughput differs by
  far more than any useful threshold.

Key counters missing from either file are reported and skipped (new
benchmarks have no baseline yet), so the gate never blocks adding
benchmarks — only slowing existing ones down. CI smoke runs are noisy
(shared runners, minimal iteration counts), hence the deliberately loose
default threshold of 25%; BENCH_MAX_REGRESSION overrides it.
"""

import argparse
import json
import os
import sys

# Same-run A/B pairs: (suite, numerator benchmark, denominator benchmark).
# Each captures a layer's speedup over the one it is measured against
# (compiled over interpreted, adaptive over static, incremental over
# from-scratch), independent of the machine.
KEY_RATIOS = [
    ("bench_sharded", "BM_ShardedSkewed/4096/1/real_time",
     "BM_ShardedSkewed/4096/0/real_time"),
    ("bench_sharded", "BM_ShardedSkewed/100000/1/real_time",
     "BM_ShardedSkewed/100000/0/real_time"),
    ("bench_engine", "BM_SequentialEngineCompiledVsInterpreted/1",
     "BM_SequentialEngineCompiledVsInterpreted/0"),
    ("bench_dfinder", "BM_DFinderInvariantCompiledVsTree/1",
     "BM_DFinderInvariantCompiledVsTree/0"),
    ("bench_dfinder", "BM_DFinderIncrementalVsFull/1",
     "BM_DFinderIncrementalVsFull/0"),
]

# Same-run ratios that must additionally clear an absolute floor in the
# NEW results, independent of any baseline: the adaptive scheduler
# (rebalancing + work stealing) must beat the static partition on the
# 10^5-component skewed-load model, or the online-rebalancing claim is
# void no matter what the baseline recorded.
KEY_RATIO_FLOORS = [
    ("bench_sharded", "BM_ShardedSkewed/100000/1/real_time",
     "BM_ShardedSkewed/100000/0/real_time", 1.0),
]

# Absolute throughput counters, only comparable on matching context.
KEY_COUNTERS = [
    ("bench_engine", "BM_SequentialEngine/0"),
    ("bench_engine", "BM_EnabledScan/256"),
    ("bench_sharded", "BM_SequentialEngine256"),
    ("bench_sharded", "BM_ShardedEngine256/4/real_time"),
    ("bench_sharded", "BM_ShardedSkewed/100000/1/real_time"),
    ("bench_dfinder", "BM_DFinderPhilosophers/8"),
    ("bench_dfinder", "BM_DFinderGasStation/4"),
]


def load(path):
    with open(path) as f:
        merged = json.load(f)
    counters = {}
    context = {}
    obs = {}
    for suite, payload in merged.items():
        ctx = payload.get("context", {})
        context[suite] = (ctx.get("host_name"), ctx.get("num_cpus"))
        obs[suite] = payload.get("obs", {}).get("counters", {})
        for bench in payload.get("benchmarks", []):
            ips = bench.get("items_per_second")
            if ips is not None:
                counters[(suite, bench["name"])] = ips
    return counters, context, obs


def report_obs(base_obs, new_obs):
    """Informational (never gating) report of the telemetry counters each
    suite exported (src/obs, attached by run_benches.sh): execution-path
    mix shifts — tryfire hit rate dropping, cross-shard conflicts
    appearing — that a pure timing diff cannot attribute."""

    derived = [
        ("tryfire hit rate",
         lambda c: (c.get("vm.tryfire.hits", 0) / c["vm.tryfire.calls"]
                    if c.get("vm.tryfire.calls") else None)),
        ("cross-shard conflicts",
         lambda c: c.get("engine.sharded.cross.conflicts")),
        ("stalled epochs", lambda c: c.get("engine.sharded.epochs.stalled")),
    ]
    printed_header = False
    for suite in sorted(set(base_obs) | set(new_obs)):
        b, n = base_obs.get(suite, {}), new_obs.get(suite, {})
        if not b and not n:
            continue
        lines = []
        for label, fn in derived:
            bv, nv = fn(b), fn(n)
            if bv is None and nv is None:
                continue
            fmt = lambda v: "n/a" if v is None else (
                f"{v:.1%}" if isinstance(v, float) and "rate" in label else f"{v:g}")
            lines.append(f"  {suite}: {label}  {fmt(bv)} -> {fmt(nv)}")
        if lines and not printed_header:
            print("\nobs counter deltas (informational, never gating):")
            printed_header = True
        for line in lines:
            print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=float(os.environ.get("BENCH_MAX_REGRESSION", "25")),
        help="maximum tolerated throughput drop, in percent (default 25)",
    )
    args = parser.parse_args()

    base, baseCtx, baseObs = load(args.baseline)
    new, newCtx, newObs = load(args.new)
    floor = 1.0 - args.max_regression / 100.0
    failures = []

    def check(label, baseValue, newValue):
        # A zero baseline counter (seen on pathological smoke runs where a
        # benchmark records no items) makes every ratio meaningless — skip
        # loudly instead of crashing the gate with a ZeroDivisionError.
        if baseValue == 0:
            print(f"SKIP  {label} (baseline counter is zero; not comparable)")
            return
        ratio = newValue / baseValue
        status = "OK  " if ratio >= floor else "FAIL"
        print(f"{status}  {label}  {baseValue:.3g} -> {newValue:.3g}  ({ratio:.2f}x)")
        if ratio < floor:
            failures.append(f"{label} regressed to {ratio:.2f}x of baseline "
                            f"(floor {floor:.2f}x)")

    for suite, num, den in KEY_RATIOS:
        if (suite, num) not in new or (suite, den) not in new:
            failures.append(f"{suite}:{num}/{den} missing from the new results")
            continue
        if (suite, num) not in base or (suite, den) not in base:
            print(f"SKIP  {suite}:{num} over {den} (no baseline)")
            continue
        if base[(suite, den)] == 0 or new[(suite, den)] == 0:
            print(f"SKIP  {suite}:{num} over {den} (zero denominator counter; "
                  f"not comparable)")
            continue
        check(f"{suite}:{num} over {den} [speedup ratio]",
              base[(suite, num)] / base[(suite, den)],
              new[(suite, num)] / new[(suite, den)])

    for suite, num, den, ratioFloor in KEY_RATIO_FLOORS:
        if (suite, num) not in new or (suite, den) not in new:
            continue  # the KEY_RATIOS pass already failed on the absence
        if new[(suite, den)] == 0:
            print(f"SKIP  {suite}:{num} over {den} floor (zero denominator)")
            continue
        ratio = new[(suite, num)] / new[(suite, den)]
        status = "OK  " if ratio > ratioFloor else "FAIL"
        print(f"{status}  {suite}:{num} over {den} [absolute floor "
              f"{ratioFloor:.2f}x]  ({ratio:.2f}x)")
        if ratio <= ratioFloor:
            failures.append(f"{suite}:{num} over {den} at {ratio:.2f}x is below "
                            f"the absolute floor {ratioFloor:.2f}x")

    for suite, name in KEY_COUNTERS:
        if (suite, name) not in base:
            print(f"SKIP  {suite}:{name} (no baseline counter)")
            continue
        if (suite, name) not in new:
            failures.append(f"{suite}:{name} missing from the new results")
            continue
        if baseCtx.get(suite) != newCtx.get(suite):
            print(f"SKIP  {suite}:{name} (baseline context {baseCtx.get(suite)} != "
                  f"{newCtx.get(suite)}; absolute throughput not comparable)")
            continue
        check(f"{suite}:{name} [items/s]", base[(suite, name)], new[(suite, name)])

    report_obs(baseObs, newObs)

    if failures:
        print(f"\nbench-regression gate FAILED ({len(failures)} check(s)):",
              file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench-regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
