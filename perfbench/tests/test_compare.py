"""Negative control for the comparison rule (perfbench/compare.py).

    python3 -m unittest discover -s perfbench/tests
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import compare  # noqa: E402

SPEC = compare.load_spec()


def run_set(scale=None):
    """Ten synthetic runs per workload with a small, realistic spread;
    `scale` multiplies one metric's values."""
    runs = []
    for i in range(10):
        jitter = 1 + 0.01 * ((i * 7) % 5 - 2)
        m = {"wall_s": 4.5 * jitter, "setup_s": 0.1 * jitter, "cpu_s": 4.4 * jitter,
             "rss_peak_mb": 60 * jitter, "jobs_ok_frac": 1.0}
        if scale:
            name, factor = scale
            m[name] *= factor
        runs.append(m)
    return {"fig7_10k": runs, "attack_grid": [dict(r) for r in runs]}


class CompareRule(unittest.TestCase):
    def bound(self, name):
        return next(m["bound"] for m in SPEC if m["name"] == name)

    def test_identical_sets_pass(self):
        self.assertEqual(compare.compare(SPEC, run_set(), run_set()), [])

    def test_metric_worse_than_its_bound_is_flagged(self):
        for m in SPEC:
            worse = 1 + 1.5 * m["bound"] if m["better"] == "lower" else 1 - 1.5 * m["bound"]
            flags = compare.compare(SPEC, run_set(), run_set((m["name"], worse)))
            self.assertTrue(any(f"fig7_10k {m['name']}: median worse" in f for f in flags),
                            (m["name"], flags))

    def test_change_within_the_bound_passes(self):
        within = 1 + 0.5 * self.bound("wall_s")
        self.assertEqual(compare.compare(SPEC, run_set(), run_set(("wall_s", within))), [])

    def test_improvement_passes(self):
        self.assertEqual(compare.compare(SPEC, run_set(), run_set(("wall_s", 0.5))), [])

    def test_unsteady_side_is_flagged(self):
        noisy = run_set()
        for i, r in enumerate(noisy["fig7_10k"]):
            r["wall_s"] *= 1 + (0.8 if i % 2 else -0.4)
        flags = compare.compare(SPEC, run_set(), noisy)
        self.assertTrue(any("fig7_10k wall_s: new spread" in f for f in flags), flags)


if __name__ == "__main__":
    unittest.main()
