#!/usr/bin/env python3
"""Steadiness check for the CHAOS benchmark.

Runs every workload once per seed, alternating the workload order between seeds, and
prints each end-to-end metric's median, quartiles and spread (quartile distance as a
share of the median).  The bounds in BENCHMARK.json are chosen from this output: a
bound should be at least three times the spread seen here.

Then, for each workload, it repeats the first seed (once untraced, twice traced) and
confirms that `modeled_s` and every deterministic per-layer metric (counts and modeled
times, not wall-clock times) repeat exactly.  Exits 1 if a run fails, reports failed
operations, or a deterministic metric does not repeat.

    python3 perfbench/steady.py [--seeds 10] [--seconds 20] [--workloads charmm_md,...]

Run from the repository root.  Each run goes through perfbench/run.sh, which builds
the benchmark first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
# Wall-clock metrics vary run to run; everything else must repeat exactly.
WALL_SUFFIXES = ("wall_us", "wall_ms", "wall_ms_per_step", "steps_per_s", "overhead_pct")
WALL_METRICS = {"steps_per_s", "setup_s", "peak_rss_mb"}


def run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}", flush=True)
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def deterministic(name):
    return name not in WALL_METRICS and not name.endswith(WALL_SUFFIXES)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = p.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    ok = True
    results = {w: [] for w in workloads}
    for k, seed in enumerate(range(1, args.seeds + 1)):
        for w in (workloads if k % 2 == 0 else workloads[::-1]):
            results[w].append(run(w, seed, args.seconds, 0))

    print(f"\n{'workload':<12} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        rs = results[w]
        for name in bounds:
            vals = [value(r, name) for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            print(f"{w:<12} {name:<12} {len(vals):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {bounds[name]:>6}")
            print(f"{'':<12} {'':<12} runs: {' '.join(f'{v:.5g}' for v in vals)}")
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"{w:<12} failed share per run: {sorted(shares)}")
        ok &= all(r["correct"] and r["failed"] == 0 for r in rs)

    print("\nRepeatability (first seed again):")
    for w in workloads:
        again = run(w, 1, args.seconds, 0)
        same = value(again, "modeled_s") == value(results[w][0], "modeled_s")
        traced = [run(w, 1, args.seconds, 1) for _ in range(2)]
        differ = [n for n in traced[0]["metrics"]
                  if deterministic(n) and value(traced[0], n) != value(traced[1], n)]
        print(f"  {w}: modeled_s repeats: {same}; deterministic per-layer metrics "
              f"that differ: {differ or 'none'}")
        ok &= same and not differ and all(r["failed"] == 0 for r in [again] + traced)
    print("\nsteady: OK" if ok else "\nsteady: FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
