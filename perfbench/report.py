#!/usr/bin/env python3
"""Run every workload several times and print every end-to-end metric.

    python3 perfbench/report.py [--runs 10] [--seed 1] [--workloads a,b]
                                [--trace] [--save FILE]

Run from the repository root. Each run is `perfbench/run.py` with its own
seed (--seed, --seed + 1, ...). For each workload and end-to-end metric the
table gives the unit, median, quartiles, run count, and spread (quartile
distance over the median) against a third of the metric's bound. --trace
adds one traced run per workload and prints its per-layer metrics. --save
writes the run set for compare.py. Exits 1 when any run fails its output
checks, or when a spread other than setup_s's exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402


def bench_run(workload, seed, seconds, trace):
    """run.py's result for one run, or None when it printed none."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or not result["correct"]:
        sys.stderr.write(out.stderr)
    return result


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save")
    args = ap.parse_args()

    ok = True
    saved = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            res = bench_run(workload, args.seed + i, spec["run_seconds"], 0)
            if res is None or not res["correct"]:
                ok = False
                print(f"{workload} seed {args.seed + i}: output check FAILED "
                      f"({'no result' if res is None else res['failed']} failed)")
                continue
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
        saved[workload] = runs
        print(f"\n== {workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        print(f"{'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'runs':>6}"
              f"{'spread':>9}{'bound/3':>9}")
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            if not vals:
                continue
            q1, q3 = (statistics.quantiles(vals, n=4)[::2] if len(vals) > 1
                      else (vals[0], vals[0]))
            sp = compare.spread(vals)
            note = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                ok = False
                note = "  UNSTEADY"
            elif sp > m["bound"] / 3:
                note = "  (above a third of the bound)"
            print(f"{m['name']:<14}{m['unit']:<7}{statistics.median(vals):>12.5g}{q1:>12.5g}"
                  f"{q3:>12.5g}{len(vals):>6}{sp:>9.3f}{m['bound'] / 3:>9.3f}{note}")
        if args.trace:
            res = bench_run(workload, args.seed, spec["run_seconds"], 1)
            if res is None or not res["correct"]:
                ok = False
                print(f"{workload} traced run: output check FAILED")
            else:
                print(f"-- {workload}: per-layer metrics (traced run, seed {args.seed})")
                for name, v in res["metrics"].items():
                    print(f"   {name:<32}{v['value']:>16.6g} {v['unit']}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
