#!/usr/bin/env python3
"""The benchmark's comparison rule, for two saved run sets.

    python3 perfbench/compare.py BASE.json NEW.json

A run set is what `report.py --save` writes: {workload: [metrics, ...]},
one metrics dict ({name: value}) per run. For every end-to-end metric of
BENCHMARK.json on every workload in both sets, NEW is flagged when

  * its median is worse than BASE's median by more than the metric's bound
    (a share of BASE's median), or
  * either side's spread -- the distance between the first and third
    quartile as a share of the median -- exceeds the bound, so a difference
    of that size could not be told from noise. setup_s is exempt from this
    one (it is few-sample by design; only its median is compared).

Exits 1 when anything is flagged.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """Inter-quartile distance over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) / base
    return delta if better == "lower" else -delta


def compare(metrics_spec, base, new):
    """Flags for every (workload, metric) the rule rejects; [] when NEW passes."""
    flags = []
    for workload in sorted(set(base) & set(new)):
        for m in metrics_spec:
            name, bound = m["name"], m["bound"]
            b = [run[name] for run in base[workload]]
            n = [run[name] for run in new[workload]]
            w = worse_by(statistics.median(b), statistics.median(n), m["better"])
            if w > bound:
                flags.append(f"{workload} {name}: median worse by {w:.1%} (bound {bound:.0%})")
            if name != "setup_s":
                for side, vals in (("base", b), ("new", n)):
                    if spread(vals) > bound:
                        flags.append(f"{workload} {name}: {side} spread {spread(vals):.1%} "
                                     f"exceeds the bound {bound:.0%}")
    return flags


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    flags = compare(load_spec(), base, new)
    for line in flags:
        print("FLAGGED", line)
    if not flags:
        print("no end-to-end metric is worse than its bound")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
