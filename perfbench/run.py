#!/usr/bin/env python3
"""Whole-job benchmark for ngsim: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt: the bng library and ngsim from ../src,
plus perfbench/ngbench.cpp) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls only check the build is current.

--trace 0 times the workload's sweep as a user runs it, each repetition in a
fresh process, and reports the end-to-end metrics. --trace 1 runs the sweep
once and then the traced in-process pass, and reports the per-layer metrics.
Every run checks every record (see README.md, "Output checks"). The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
NGBENCH = os.path.join(CMAKE_DIR, "ngbench")
NGSIM = os.path.join(CMAKE_DIR, "bng", "ngsim")

DEFAULT_SEED = 1
PASS_THREADS = 3  # the untraced reference pass; the traced pass is serial
RUN_LIMIT_S = 150  # stop adding repetitions past this; the run must end by 180 s

# name -> how the workload runs. `base` is the scenario's own seed_base; seed
# DEFAULT_SEED maps onto it, so the reference digests are the stock ones.
# `inputs` is how many seed_bases a run cycles its sweeps through: one
# fig7_10k sweep's cost depends on its seed by up to 1.5x, so its runs take
# the median over seven. `reps` is the fewest timed sweeps a run makes (more
# while --seconds lasts); `setup_reps` the set-up-only repetitions after each
# reference pass. fig8b_ng runs like the others but is not in BENCHMARK.json
# (README, "Noise").
WORKLOADS = {
    "fig7_10k": {"scenario": "fig7_10k", "knobs": ["--blocks", "20"], "jobs": 1,
                 "base": 710, "inputs": 7, "reps": 7, "setup_reps": 1},
    "fig8b_ng": {"scenario": "fig8b", "knobs": [], "jobs": 2, "base": 8200,
                 "reps": 3, "setup_reps": 2},
    "attack_grid": {"file": "attack_grid.scn", "procs": 2, "base": 9700,
                    "reps": 3, "setup_reps": 8},
    "attack_grid_warm": {"file": "attack_grid.scn", "procs": 2, "base": 9700,
                         "reps": 3, "setup_reps": 0, "warm": True},
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "rss_peak_mb": "MB",
             "jobs_ok_frac": "ratio"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # ngsim reads REPRO_* knobs from the environment; they would change the
    # scenario (and its cache keys) behind the benchmark's back.
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def build():
    missing = [p for p in ("CMakeLists.txt", "src", "apps/ngsim_main.cpp")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("run from the repository root: missing " + ", ".join(missing))
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", "ngbench", "ngsim"])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, env=child_env()) != 0:
                with open(logf) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed (" + logf + "):\n" + tail)


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts subprocesses, waits for each, and keeps the run under its limit."""

    def __init__(self, work):
        self.t0 = time.perf_counter()
        self.work = work

    def elapsed(self):
        return time.perf_counter() - self.t0

    def run(self, cmd, name):
        """Run cmd to completion under `ngbench spawn`; returns (exit code,
        wall s, cpu s, peak RSS MB). CPU and RSS are wait4's: the process plus
        every child it waited for, so --procs workers and threads count."""
        timeout = max(5.0, 175 - self.elapsed())
        logf = os.path.join(self.work, name + ".log")
        usage = os.path.join(self.work, name + ".rusage")
        if os.path.exists(usage):
            os.remove(usage)
        with open(logf, "w") as out:
            # Own process group, so a timeout also stops --procs workers.
            proc = subprocess.Popen([NGBENCH, "spawn", usage, *cmd], stdout=out,
                                    stderr=subprocess.STDOUT, env=child_env(),
                                    start_new_session=True)
            timer = threading.Timer(timeout, kill_group, (proc.pid,))
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
        try:
            with open(usage) as f:
                wall, cpu, maxrss_kb = (float(x) for x in f.read().split())
        except (OSError, ValueError):
            code = code or 1
            wall, cpu, maxrss_kb = 0.0, 0.0, 0.0
        if code != 0:
            with open(logf) as f:
                log(f"[perfbench] {name} exited {code}:\n" + f.read()[-2000:])
        return code, wall, cpu, maxrss_kb / 1024.0


class Workload:
    def __init__(self, name, seed, work):
        self.name = name
        self.spec = WORKLOADS[name]
        n = self.spec.get("inputs", 1)
        self.inputs = [self.spec["base"] + ((seed - DEFAULT_SEED) * n + k) % (1 << 32)
                       for k in range(n)]
        self.default_seed = seed == DEFAULT_SEED
        self.work = work
        self.procs = self.spec.get("procs", 0)
        if "file" in self.spec:
            # The file's seed_base line comes from the argument: ngsim --procs
            # workers rebuild the scenario from this text.
            with open(os.path.join(HERE, self.spec["file"])) as f:
                lines = [f"seed_base   = {self.inputs[0]}" if l.startswith("seed_base") else l
                         for l in f.read().splitlines()]
            self.scn = os.path.join(work, "attack_grid.scn")
            with open(self.scn, "w") as f:
                f.write("\n".join(lines) + "\n")
            self.scenario_args = ["--scenario-file", self.scn]
            self.artifact = "attack_grid"
        else:
            self.scenario_args = ["--scenario", self.spec["scenario"], *self.spec["knobs"]]
            self.artifact = self.spec["scenario"]

    def sweep_cmd(self, out, cache, seed_base):
        if self.procs:
            return [NGSIM, *self.scenario_args, "--seeds", "1", "--procs", str(self.procs),
                    "--cache", cache, "--out", out, "--no-table"]
        return [NGBENCH, "sweep", *self.scenario_args, "--seed-base", str(seed_base),
                "--jobs", str(self.spec["jobs"]), "--out", out]

    def pass_cmd(self, out, threads, seed_base, extra=()):
        cmd = [NGBENCH, "pass", *self.scenario_args, "--seed-base", str(seed_base),
               "--threads", str(threads), "--out", out, *extra]
        if self.procs:
            cmd.append("--codec")
        return cmd

    def artifacts(self, out):
        names = [self.artifact + s for s in (".json", "_aggregate.csv", "_seeds.csv")]
        blobs = []
        for n in names:
            try:
                with open(os.path.join(out, n), "rb") as f:
                    blobs.append(f.read())
            except OSError:
                blobs.append(None)
        return blobs


def sweep_records(out, artifact):
    """{(point, ordinal): (seed, digest)} from a sweep's JSON, or None."""
    try:
        with open(os.path.join(out, artifact + ".json")) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    recs = {}
    for p, point in enumerate(doc.get("points", [])):
        for o, r in enumerate(point.get("seeds", [])):
            recs[(p, o)] = (r.get("seed"), r.get("digest"))
    return recs


def check_records(recs, expected, seed_base, exit_code):
    """Failed job count of one sweep: every grid job needs exactly one
    record, with its own seed identity and the expected digest."""
    if exit_code != 0 or recs is None:
        return len(expected)
    failed = 0
    for (p, o), digest in expected.items():
        got = recs.get((p, o))
        if got is None or got[0] != seed_base + p * 1_000_000 + o or got[1] != digest:
            failed += 1
    return failed + len(set(recs) - set(expected))


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


class Check:
    """Counts jobs attempted and failed over a run, plus run-level problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def sweep(self, recs, code, expected, seed_base, what):
        failed = check_records(recs, expected, seed_base, code)
        self.attempted += len(expected)
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {len(expected)} jobs failed")

    def require(self, ok, what):
        if not ok:
            self.problems.append(what)

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0 and not self.problems


class Sweep:
    """One finished sweep: its input, records, exit code, and cost."""

    def __init__(self, wl, seed_base, out, code, wall, cpu, rss_mb):
        self.seed_base = seed_base
        self.recs = sweep_records(out, wl.artifact)
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb


def run_sweep(r, wl, name, cache, seed_base):
    out = os.path.join(wl.work, name)
    shutil.rmtree(out, ignore_errors=True)
    code, wall, cpu, rss_mb = r.run(wl.sweep_cmd(out, cache, seed_base), name)
    return Sweep(wl, seed_base, out, code, wall, cpu, rss_mb), out


def cache_snapshot(cache):
    snap = {}
    for dirpath, _, files in os.walk(cache):
        for fn in files:
            if fn.endswith(".bngc"):
                st = os.stat(os.path.join(dirpath, fn))
                snap[os.path.join(dirpath, fn)] = (st.st_ino, st.st_mtime_ns)
    return snap


def run_pass(r, wl, name, jobs, threads, seed_base, args):
    """The in-process pass over exactly `jobs` (the sweep's records)."""
    out = os.path.join(wl.work, name)
    shutil.rmtree(out, ignore_errors=True)
    jobs_file = os.path.join(wl.work, name + "_jobs.txt")
    with open(jobs_file, "w") as f:
        f.writelines(f"{p} {o}\n" for p, o in sorted(jobs))
    code, *_ = r.run(wl.pass_cmd(out, threads, seed_base,
                                   ["--jobs-file", jobs_file, *args]), name)
    if code != 0:
        raise BenchError(f"the in-process {name} failed")
    with open(os.path.join(out, "pass.json")) as f:
        doc = json.load(f)
    doc["digests"] = {(j["point"], j["ordinal"]): j["digest"] for j in doc["jobs"]}
    return doc, out


def expected_digests(wl, ref_pass, seed_base, check):
    """The digests every record must carry: the recorded reference on the
    default seed (which the pass must reproduce too), else the pass's."""
    got = ref_pass["digests"]
    check.require(len(got) == ref_pass["grid_jobs"],
                  f"the sweep listed {len(got)} jobs; the grid has {ref_pass['grid_jobs']}")
    if not wl.default_seed:
        return got
    with open(os.path.join(HERE, "reference_digests.json")) as f:
        ref = {tuple(int(x) for x in k.split(":")): d
               for k, d in json.load(f)[wl.artifact][str(seed_base)].items()}
    check.require(got == ref, "the pass's digests differ from the recorded reference")
    return ref


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def end_to_end(wl, seconds):
    """Repeated sweeps, each in a fresh process, then the reference passes."""
    r = Runner(wl.work)
    check = Check()
    warm = wl.spec.get("warm", False)
    cache = os.path.join(wl.work, "cache")
    setups = []
    checked = []  # (Sweep, what)
    first = {}  # seed_base -> (records, artifacts) of its first sweep
    if warm:
        # The warm workload's set-up is filling the cache it reads.
        cold, cold_out = run_sweep(r, wl, "cold", fresh(cache), wl.inputs[0])
        setups.append(cold.wall)
        checked.append((cold, "cold sweep"))
        first[cold.seed_base] = (cold.recs, wl.artifacts(cold_out))
    sweeps = []
    t0 = time.perf_counter()
    while len(sweeps) < wl.spec["reps"] or (time.perf_counter() - t0 < seconds
                                     and r.elapsed() < RUN_LIMIT_S):
        if wl.procs and not warm:
            fresh(cache)
        seed_base = wl.inputs[len(sweeps) % len(wl.inputs)]
        s, out = run_sweep(r, wl, "sweep", cache if wl.procs else None, seed_base)
        if warm:
            check.require(wl.artifacts(out) == first[seed_base][1],
                          f"warm sweep {len(sweeps)}: artifacts differ from the cold sweep's")
        elif seed_base not in first:
            first[seed_base] = (s.recs, wl.artifacts(out))
        sweeps.append(s)
        checked.append((s, f"sweep {len(sweeps) - 1}"))
    expected = {}
    for seed_base, (listed, artifacts) in first.items():
        if listed is None:
            raise BenchError(f"the first sweep of seed_base {seed_base} wrote no records")
        args = ["--setup-reps", str(wl.spec["setup_reps"])]
        if wl.procs:
            args += ["--cache", fresh(os.path.join(wl.work, "pass_cache"))]
        ref, pass_out = run_pass(r, wl, "pass", listed, PASS_THREADS, seed_base, args)
        expected[seed_base] = expected_digests(wl, ref, seed_base, check)
        check.require(wl.artifacts(os.path.join(pass_out, "artifacts")) == artifacts,
                      f"seed_base {seed_base}: the pass's artifacts differ from the sweep's")
        if not warm:
            setups += ref["setup_s"]
    for s, what in checked:
        check.sweep(s.recs, s.code, expected[s.seed_base], s.seed_base, what)
    series = {
        "wall_s": [s.wall for s in sweeps],
        "setup_s": setups,
        "cpu_s": [s.cpu for s in sweeps],
        "rss_peak_mb": [s.rss_mb for s in sweeps],
    }
    for name, vals in series.items():
        q1, q3 = quartiles(vals)
        log(f"[perfbench] {wl.name} {name}: median {statistics.median(vals):.6g} "
            f"q1 {q1:.6g} q3 {q3:.6g} n {len(vals)}")
    metrics = {k: statistics.median(v) for k, v in series.items()}
    metrics["jobs_ok_frac"] = 1.0 - check.failed / max(check.attempted, 1)
    return check, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


# Per-layer metric -> the span it sums the self times of (a span's duration
# minus its child spans') over the traced pass.
SPAN_METRICS = {
    "sim.workload_build_s": "sim.workload_build",
    "sim.build_s": "sim.build",
    "sim.run_s": "sim.run",
    "sim.teardown_s": "sim.teardown",
    "metrics.compute_s": "metrics.compute",
    "metrics.consensus_delay_s": "metrics.consensus_delay",
    "metrics.propagation_delays_s": "metrics.propagation_delays",
    "metrics.time_to_prune_s": "metrics.time_to_prune",
    "metrics.time_to_win_s": "metrics.time_to_win",
    "metrics.other_s": "metrics.other",
    "metrics.attacker_report_s": "metrics.attacker_report",
    "runner.expand_s": "runner.expand",
    "runner.extra_s": "runner.extra",
    "runner.extract_record_s": "runner.extract_record",
    "runner.encode_s": "runner.encode",
    "runner.decode_s": "runner.decode",
    "runner.cache_store_s": "runner.cache_store",
    "runner.cache_lookup_s": "runner.cache_lookup",
    "runner.emit_s": "runner.emit",
    "job.unattributed_s": "job",
}
# Per-layer metric -> the pass.json job counter it sums.
JOB_COUNTERS = {
    "sim.events_executed": "events",
    "net.messages_sent": "messages",
    "net.bytes_sent": "bytes",
    "net.direct_deliveries": "direct",
    "net.burst_drained": "burst",
    "chain.blocks_generated": "blocks",
    "chain.micro_blocks": "micro",
    "crypto.ng_keys_derived": "ng_keys",
    "crypto.microblocks_signed": "ng_micro",
}


def self_times(trace_path):
    """{span name: (summed self seconds, span count)} from a trace file."""
    spans = {}
    with open(trace_path) as f:
        for line in f:
            s = json.loads(line)
            spans[(s["job"], s["id"])] = s
    child_ns = {}
    for s in spans.values():
        if s["parent"] >= 0:
            key = (s["job"], s["parent"])
            child_ns[key] = child_ns.get(key, 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for key, s in spans.items():
        own = (s["end_ns"] - s["start_ns"] - child_ns.get(key, 0)) / 1e9
        total, n = out.get(s["name"], (0.0, 0))
        out[s["name"]] = (total + own, n + 1)
    return out


def per_layer(wl):
    """One sweep of the first input (for its records and cache directory),
    then the serial traced pass over the jobs it listed."""
    r = Runner(wl.work)
    seed_base = wl.inputs[0]
    check = Check()
    warm = wl.spec.get("warm", False)
    cache = fresh(os.path.join(wl.work, "cache"))
    checked = []
    if warm:
        cold, cold_out = run_sweep(r, wl, "cold", cache, seed_base)
        checked.append((cold, "cold sweep"))
    before = cache_snapshot(cache)
    sweep, out = run_sweep(r, wl, "sweep", cache if wl.procs else None, seed_base)
    checked.append((sweep, "sweep"))
    after = cache_snapshot(cache)
    written = sum(1 for k, v in after.items() if before.get(k) != v)
    if warm:
        check.require(wl.artifacts(out) == wl.artifacts(cold_out),
                      "warm sweep: artifacts differ from the cold sweep's")
    listed = checked[0][0].recs
    if listed is None:
        raise BenchError("the first sweep wrote no records")
    args = ["--traced"]
    if warm:
        # The traced pass reads the warm cache, so an untraced pass that
        # simulates is the reference for the cold sweep's records.
        ref, _ = run_pass(r, wl, "ref_pass", listed, PASS_THREADS, seed_base,
                          ["--cache", fresh(os.path.join(wl.work, "pass_cache"))])
        args += ["--cache", cache, "--untraced-cache", cache]
    elif wl.procs:
        args += ["--cache", fresh(os.path.join(wl.work, "pass_cache")),
                 "--untraced-cache", fresh(os.path.join(wl.work, "untraced_cache"))]
    doc, pass_out = run_pass(r, wl, "traced_pass", listed, 1, seed_base, args)
    if not warm:
        ref = doc
    expected = expected_digests(wl, ref, seed_base, check)
    check.require(doc["digests"] == expected, "the traced pass's digests differ")
    for s, what in checked:
        check.sweep(s.recs, s.code, expected, seed_base, what)
    check.require(wl.artifacts(os.path.join(pass_out, "artifacts")) == wl.artifacts(out),
                  "the traced pass's artifacts differ from the sweep's")

    spans = self_times(os.path.join(pass_out, "trace.jsonl"))
    m = {name: spans.get(span, (0.0, 0))[0] for name, span in SPAN_METRICS.items()}
    m["sim.workload_builds"] = spans.get("sim.workload_build", (0.0, 0))[1]
    for name, key in JOB_COUNTERS.items():
        m[name] = sum(j[key] for j in doc["jobs"])
    m["sim.events_per_run_s"] = m["sim.events_executed"] / m["sim.run_s"] if m["sim.run_s"] else 0.0
    for k in ("sign_us", "verify_us", "pubkey_us"):
        m["crypto." + k] = doc["crypto"][k]
    # Cache counts come from the sweep's cache directory: under --procs the
    # workers' RunCache counters never reach the dispatcher. Every miss
    # stores, so the jobs that wrote nothing were hits.
    m["runner.cache_entries_written"] = written if wl.procs else 0
    m["runner.cache_hits"] = len(listed) - written if wl.procs else 0
    traced_job_s = sum(j["wall_s"] for j in doc["jobs"])
    m["job.total_s"] = traced_job_s
    m["trace.overhead_frac"] = traced_job_s / doc["untraced_job_s"] - 1.0
    for name in ("sim.run_s", "metrics.compute_s", "job.total_s"):
        log(f"[perfbench] {wl.name} {name}: {m[name]:.6g}")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        units = {x["name"]: x["unit"] for x in json.load(f)["per_layer"]}
    return check, {k: {"value": m[k], "unit": units[k]} for k in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        work = os.path.join(BUILD, "work", args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        wl = Workload(args.workload, args.seed, work)
        check, metrics = (per_layer(wl) if args.trace else end_to_end(wl, args.seconds))
    except BenchError as e:
        log(f"[perfbench] {e}")
        return 2
    for p in check.problems:
        log(f"[perfbench] CHECK FAILED: {p}")
    print(json.dumps({"correct": check.correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main())
