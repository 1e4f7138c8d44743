// ngbench — the in-process half of the whole-job benchmark (perfbench/run.py
// drives it; perfbench/README.md explains the numbers).
//
//   ngbench sweep --scenario NAME [--blocks N] --seed-base B [--jobs N] --out DIR
//
//     One sweep as `ngsim --scenario NAME --seeds 1 --no-table --out DIR` runs
//     it, with one difference: the scenario's seed_base is set before
//     run_sweep, since ngsim has no flag for a builtin's seed_base. Writes the
//     same three artifacts ngsim writes.
//
//   ngbench spawn FILE PROGRAM [ARGS...]
//
//     Fork and exec PROGRAM, wait for it, and write "wall_s cpu_s maxrss_kb"
//     to FILE: its wall time, and wait4's user + sys CPU and peak RSS of it and
//     every child it waited for. Exits with PROGRAM's exit code. Spawning
//     from this small process keeps the peak RSS clean: a child's ru_maxrss
//     starts at its parent's resident size, so timing from a large parent
//     (the Python harness) would report the parent's size instead.
//
//   ngbench pass (--scenario NAME [--blocks N] | --scenario-file PATH)
//                [--seed-base B] --jobs-file PATH [--threads N]
//                [--cache DIR] [--codec] [--setup-reps N]
//                [--traced [--untraced-cache DIR]] --out DIR
//
//     Runs the sweep's jobs in this process by calling the public functions
//     runner::run_job calls, in the same order, and records a span around
//     each call (name, start, end, parent span, job id). Spans stay in memory
//     and go to DIR/trace.jsonl when the pass ends; DIR/pass.json carries
//     every record's identity and digest, layer counters, and the set-up
//     samples; the sweep artifacts the pass's records emit land in DIR too,
//     for a byte comparison with the real sweep's.
//
//       --jobs-file   "point ordinal" lines: run exactly these jobs
//       --cache       consult/populate a RunCache like `ngsim --cache`
//       --codec       round-trip each record through encode_record /
//                     decode_record, as the --procs worker protocol does
//       --setup-reps  repeat the set-up of every simulated job N more times
//       --traced      serial; add the standalone attribution calls
//                     (metrics::*) and per-call crypto timings on fixed keys,
//                     and run every job once more with spans off (one clock
//                     pair per job, on --untraced-cache if given) beside its
//                     traced run, for the tracing-overhead figure
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "metrics/metrics.hpp"
#include "runner/cache.hpp"
#include "runner/emit.hpp"
#include "runner/executor.hpp"
#include "runner/record_codec.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace bng;
using Clock = std::chrono::steady_clock;

/// Every benchmark workload runs one seed per sweep point.
constexpr std::uint32_t kSeeds = 1;

struct Args {
  std::string mode;
  std::string scenario;
  std::string scenario_file;
  runner::RunKnobs knobs;
  std::optional<std::uint64_t> seed_base;
  std::uint32_t jobs = 1;
  std::uint32_t threads = 1;
  std::string jobs_file;
  std::string cache;
  std::string untraced_cache;
  bool codec = false;
  bool traced = false;
  std::uint32_t setup_reps = 0;
  std::string out;
};

std::uint64_t parse_u64(const std::string& flag, const char* v) {
  if (v == nullptr) throw std::invalid_argument(flag + " requires a value");
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') throw std::invalid_argument("bad value for " + flag);
  return x;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: ngbench sweep|pass [options]");
  Args a;
  a.mode = argv[1];
  if (a.mode != "sweep" && a.mode != "pass")
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  for (int i = 2; i < argc; ++i) {
    const std::string f = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    auto str = [&] {
      if (v == nullptr) throw std::invalid_argument(f + " requires a value");
      ++i;
      return std::string(v);
    };
    auto num = [&] {
      const std::uint64_t x = parse_u64(f, v);
      ++i;
      return x;
    };
    if (f == "--scenario") a.scenario = str();
    else if (f == "--scenario-file") a.scenario_file = str();
    else if (f == "--blocks") a.knobs.blocks = static_cast<std::uint32_t>(num());
    else if (f == "--seed-base") a.seed_base = num();
    else if (f == "--jobs") a.jobs = static_cast<std::uint32_t>(num());
    else if (f == "--threads") a.threads = static_cast<std::uint32_t>(std::max<std::uint64_t>(num(), 1));
    else if (f == "--jobs-file") a.jobs_file = str();
    else if (f == "--cache") a.cache = str();
    else if (f == "--untraced-cache") a.untraced_cache = str();
    else if (f == "--codec") a.codec = true;
    else if (f == "--traced") a.traced = true;
    else if (f == "--setup-reps") a.setup_reps = static_cast<std::uint32_t>(num());
    else if (f == "--out") a.out = str();
    else throw std::invalid_argument("unknown option '" + f + "'");
  }
  if (a.scenario.empty() == a.scenario_file.empty())
    throw std::invalid_argument("exactly one of --scenario / --scenario-file is required");
  if (a.out.empty()) throw std::invalid_argument("--out is required");
  if (a.mode == "pass" && a.jobs_file.empty())
    throw std::invalid_argument("pass needs --jobs-file");
  return a;
}

runner::Scenario load_scenario(const Args& a) {
  std::optional<runner::Scenario> s;
  if (!a.scenario_file.empty()) {
    s = runner::load_scenario_file(a.scenario_file, a.knobs);
  } else {
    s = runner::make_scenario(a.scenario, a.knobs);
    if (!s) throw std::invalid_argument("unknown scenario '" + a.scenario + "'");
  }
  if (a.seed_base) s->seed_base = *a.seed_base;
  return *std::move(s);
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

void write_artifacts(const std::filesystem::path& dir, const runner::SweepResult& result,
                     const std::string& json, const std::string& agg,
                     const std::string& seeds) {
  std::filesystem::create_directories(dir);
  write_file(dir / (result.scenario + ".json"), json);
  write_file(dir / (result.scenario + "_aggregate.csv"), agg);
  write_file(dir / (result.scenario + "_seeds.csv"), seeds);
}

int sweep_main(const Args& a) {
  const runner::Scenario scenario = load_scenario(a);
  runner::SweepOptions options;
  options.seeds = kSeeds;
  options.jobs = a.jobs;
  const runner::SweepResult result = runner::run_sweep(scenario, options);
  write_artifacts(a.out, result, runner::to_json(result), runner::aggregate_csv(result),
                  runner::seeds_csv(result));
  return 0;
}

// --- Spans ---------------------------------------------------------------------

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;  ///< index into the same job's span list; -1 for a root
};

/// The spans of one job (or of the sweep-level calls, job -1). Disabled, it
/// records nothing and only runs the timed calls.
class JobTrace {
 public:
  JobTrace(std::int64_t job, bool enabled) : job_(job), enabled_(enabled) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, Clock::now(), {}, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(stack_.back())].end = Clock::now();
    stack_.pop_back();
  }
  template <class F>
  decltype(auto) time(const char* name, F&& f) {
    open(name);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close();
    } else {
      decltype(auto) r = f();
      close();
      return r;
    }
  }
  [[nodiscard]] double seconds(int id) const {
    if (id < 0) return 0;
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  [[nodiscard]] std::int64_t job() const { return job_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t job_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- Pass ----------------------------------------------------------------------

struct JobId {
  std::uint32_t point = 0;
  std::uint32_t ordinal = 0;
};

/// One distinct tx pool, built by the first job that needs it and dropped by
/// the last (the thread executor's sharing rule).
struct PoolState {
  std::once_flag once;
  std::shared_ptr<const sim::PrebuiltWorkload> pool;
  std::atomic<std::uint32_t> remaining{0};
};

class Pools {
 public:
  Pools(const std::vector<runner::SweepPoint>& points, const std::vector<JobId>& jobs) {
    for (const JobId& j : jobs) {
      auto& slot = by_digest_[sim::workload_digest(points[j.point].config)];
      if (!slot) slot = std::make_unique<PoolState>();
      slot->remaining.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PoolState& at(const sim::ExperimentConfig& cfg) {
    return *by_digest_.at(sim::workload_digest(cfg));
  }

 private:
  std::map<std::uint64_t, std::unique_ptr<PoolState>> by_digest_;
};

struct JobResult {
  runner::RunRecord record;
  bool hit = false;
  double setup_s = 0;  ///< pool build (if this job built it) + ctor + build()
  double wall_s = 0;   ///< job span + teardown (attribution excluded)
  std::uint64_t events = 0;
  std::uint64_t messages = 0, bytes = 0, direct = 0, burst = 0;
  std::uint64_t blocks = 0, micro = 0;
  std::uint64_t ng_keys = 0, ng_micro = 0;
};

double record_value(const runner::RunRecord& r, const std::string& name) {
  for (const auto& [k, v] : r.values)
    if (k == name) return v;
  return 0;
}

/// Mirrors runner::run_job (and the executor's pool build before it) call
/// for call; every call sits in its own span.
JobResult run_traced_job(const runner::Scenario& scenario,
                         const std::vector<runner::SweepPoint>& points, Pools& pools,
                         runner::RunCache* cache, const JobId& id, bool codec,
                         bool attribute, JobTrace& t) {
  JobResult out;
  const runner::SweepPoint& point = points[id.point];
  const auto t0 = Clock::now();
  const int job_span = t.open("job");

  PoolState& ps = pools.at(point.config);
  std::call_once(ps.once, [&] {
    const auto b0 = Clock::now();
    ps.pool = t.time("sim.workload_build",
                     [&] { return sim::build_shared_workload(point.config); });
    out.setup_s += std::chrono::duration<double>(Clock::now() - b0).count();
  });
  std::shared_ptr<const sim::PrebuiltWorkload> pool = ps.pool;
  if (ps.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) ps.pool.reset();

  const bool cacheable =
      cache != nullptr && scenario.source.has_value() && sim::config_cacheable(point.config);
  runner::CacheKey key;
  std::optional<sim::Experiment> exp;
  if (cacheable) {
    key.scenario_hash = runner::scenario_source_hash(scenario);
    key.config_digest = sim::config_digest(point.config);
    key.seed = runner::job_seed(scenario.seed_base, id.point, id.ordinal);
    std::optional<runner::RunRecord> hit =
        t.time("runner.cache_lookup", [&] { return cache->lookup(key); });
    if (hit) {
      hit->point = id.point;
      hit->ordinal = id.ordinal;
      out.record = *std::move(hit);
      out.hit = true;
    }
  }
  if (!out.hit) {
    sim::ExperimentConfig cfg = point.config;
    cfg.seed = runner::job_seed(scenario.seed_base, id.point, id.ordinal);
    cfg.shared_workload = std::move(pool);
    if (scenario.run) cfg.shards = 1;
    const auto b0 = Clock::now();
    t.time("sim.build", [&] {
      exp.emplace(std::move(cfg));
      exp->build();
    });
    out.setup_s += std::chrono::duration<double>(Clock::now() - b0).count();
    runner::NamedValues hook_values;
    t.time("sim.run", [&] {
      if (scenario.run) scenario.run(*exp, hook_values);
      else exp->run();
    });
    runner::NamedValues values =
        t.time("metrics.compute", [&] { return runner::standard_metric_values(*exp); });
    values.insert(values.end(), hook_values.begin(), hook_values.end());
    if (scenario.extra) t.time("runner.extra", [&] { scenario.extra(*exp, values); });
    out.record = t.time("runner.extract_record", [&] {
      return runner::extract_record(*exp, std::move(values), id.point, id.ordinal);
    });
    if (cacheable) t.time("runner.cache_store", [&] { cache->store(key, out.record); });

    const net::Network& net = exp->network();
    out.events = exp->events_executed();
    out.messages = net.messages_sent();
    out.bytes = net.bytes_sent();
    out.direct = net.direct_deliveries();
    out.burst = net.burst_drained();
    out.blocks = exp->global_tree().size();
    out.micro = static_cast<std::uint64_t>(record_value(out.record, "total_micro_blocks"));
    if (point.config.params.protocol == chain::Protocol::kBitcoinNG) {
      out.ng_keys = point.config.num_nodes;
      out.ng_micro = out.micro;
    }
  }
  if (codec) {
    // The --procs path: the worker encodes, the dispatcher decodes.
    const std::string bytes = t.time("runner.encode", [&] { return runner::encode_record(out.record); });
    const runner::RunRecord back = t.time("runner.decode", [&] { return runner::decode_record(bytes); });
    if (runner::encode_record(back) != bytes)
      throw std::runtime_error("record codec round trip changed a record");
  }
  t.close();
  double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  if (job_span >= 0) wall = t.seconds(job_span);

  if (exp) {
    if (attribute) {
      // Standalone calls, outside the job span: what each metric costs on
      // its own (compute_metrics shares work between them).
      t.time("attribution", [&] {
        t.time("metrics.consensus_delay", [&] { return metrics::consensus_delay(*exp, 0.9, 0.9); });
        t.time("metrics.propagation_delays", [&] { return metrics::propagation_delays(*exp).size(); });
        t.time("metrics.time_to_prune", [&] { return metrics::time_to_prune(*exp); });
        t.time("metrics.time_to_win", [&] { return metrics::time_to_win(*exp); });
        t.time("metrics.other", [&] {
          return metrics::fairness(*exp) + metrics::mining_power_utilization(*exp) +
                 metrics::transaction_frequency(*exp);
        });
        if (exp->config().adversary.active())
          t.time("metrics.attacker_report", [&] {
            return metrics::attacker_report(*exp, exp->config().adversary.node).revenue_share;
          });
      });
    }
    const auto d0 = Clock::now();
    t.time("sim.teardown", [&] { exp.reset(); });
    wall += std::chrono::duration<double>(Clock::now() - d0).count();
  }
  out.wall_s = wall;
  return out;
}

/// Run fn(i) for i in [0, n) on `threads` threads; rethrow the first error.
template <class F>
void for_each_index(std::size_t n, std::uint32_t threads, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex mu;
  auto loop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!error) error = std::current_exception();
        next.store(n);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t k = 1; k < threads && k < n; ++k) pool.emplace_back(loop);
  loop();
  for (auto& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

/// Set-up only, for every simulated job: distinct pool builds, then
/// Experiment construction and build(). The experiment is destroyed
/// outside the clock. Returns the summed set-up seconds.
double setup_only(const std::vector<runner::SweepPoint>& points, const runner::Scenario& s,
                  const std::vector<JobId>& jobs, std::uint32_t threads) {
  Pools pools(points, jobs);
  std::vector<double> per_job(jobs.size(), 0);
  for_each_index(jobs.size(), threads, [&](std::size_t i) {
    const runner::SweepPoint& point = points[jobs[i].point];
    const auto t0 = Clock::now();
    PoolState& ps = pools.at(point.config);
    std::call_once(ps.once, [&] { ps.pool = sim::build_shared_workload(point.config); });
    sim::ExperimentConfig cfg = point.config;
    cfg.seed = runner::job_seed(s.seed_base, jobs[i].point, jobs[i].ordinal);
    cfg.shared_workload = ps.pool;
    if (ps.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) ps.pool.reset();
    std::optional<sim::Experiment> exp;
    exp.emplace(std::move(cfg));
    exp->build();
    per_job[i] = std::chrono::duration<double>(Clock::now() - t0).count();
  });
  double sum = 0;
  for (double x : per_job) sum += x;
  return sum;
}

/// Median seconds per call of fn over `n` calls.
template <class F>
double median_call_s(int n, F&& fn) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    v.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::vector<JobId> read_jobs(const std::string& path, std::size_t n_points,
                             std::uint32_t seeds) {
  std::vector<JobId> jobs;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  JobId j;
  while (in >> j.point >> j.ordinal) {
    if (j.point >= n_points || j.ordinal >= seeds)
      throw std::runtime_error("job outside the sweep grid in " + path);
    jobs.push_back(j);
  }
  return jobs;
}

int pass_main(const Args& a) {
  const std::filesystem::path dir(a.out);
  std::filesystem::create_directories(dir);
  const auto pass_t0 = Clock::now();

  JobTrace sweep_trace(-1, true);
  runner::Scenario scenario;
  std::vector<runner::SweepPoint> points;
  sweep_trace.time("runner.expand", [&] {
    scenario = load_scenario(a);
    points = runner::expand(scenario);
  });
  const std::vector<JobId> jobs = read_jobs(a.jobs_file, points.size(), kSeeds);

  std::unique_ptr<runner::RunCache> cache;
  if (!a.cache.empty()) cache = std::make_unique<runner::RunCache>(a.cache);
  Pools pools(points, jobs);
  std::vector<JobResult> results(jobs.size());
  std::vector<JobTrace> traces;
  traces.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    traces.emplace_back(static_cast<std::int64_t>(i), true);

  // With --traced the pass is serial and every job also runs with spans
  // off right beside its traced run (alternating which goes first), so a
  // drift in machine speed cancels out of the tracing-overhead figure.
  std::unique_ptr<runner::RunCache> untraced_cache;
  if (!a.untraced_cache.empty())
    untraced_cache = std::make_unique<runner::RunCache>(a.untraced_cache);
  Pools untraced_pools(points, jobs);
  double untraced_s = 0;
  auto run_untraced = [&](std::size_t i) {
    JobTrace off(static_cast<std::int64_t>(i), false);
    untraced_s += run_traced_job(scenario, points, untraced_pools, untraced_cache.get(),
                                 jobs[i], a.codec, false, off)
                      .wall_s;
  };
  for_each_index(jobs.size(), a.traced ? 1 : a.threads, [&](std::size_t i) {
    if (a.traced && i % 2 == 0) run_untraced(i);
    results[i] = run_traced_job(scenario, points, pools, cache.get(), jobs[i], a.codec,
                                a.traced, traces[i]);
    if (a.traced && i % 2 == 1) run_untraced(i);
  });

  // Emit the artifacts the pass's records make, when they cover the grid.
  const bool full_grid = jobs.size() == points.size() * kSeeds;
  if (full_grid) {
    runner::SweepResult result;
    result.scenario = scenario.name;
    result.description = scenario.description;
    result.seeds = kSeeds;
    result.points.resize(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      result.points[p].labels = points[p].labels;
      result.points[p].x = points[p].x;
      result.points[p].seeds.resize(kSeeds);
    }
    for (const JobResult& r : results)
      result.points[r.record.point].seeds[r.record.ordinal] = r.record;
    for (runner::PointResult& p : result.points) {
      std::vector<runner::NamedValues> values;
      for (const runner::RunRecord& r : p.seeds) values.push_back(r.values);
      p.aggregates = runner::aggregate_records(values);
    }
    std::string json, agg, seeds;
    sweep_trace.time("runner.emit", [&] {
      json = runner::to_json(result);
      agg = runner::aggregate_csv(result);
      seeds = runner::seeds_csv(result);
    });
    write_artifacts(dir / "artifacts", result, json, agg, seeds);
  }

  std::vector<double> setup{0};
  std::vector<JobId> simulated;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    setup[0] += results[i].setup_s;
    if (!results[i].hit) simulated.push_back(jobs[i]);
  }
  for (std::uint32_t r = 0; r < a.setup_reps; ++r)
    setup.push_back(setup_only(points, scenario, simulated, a.threads));

  std::ostringstream js;
  js << "{\"scenario\": \"" << runner::json_escape(scenario.name) << "\", \"grid_jobs\": "
     << points.size() * kSeeds << ", \"seed_base\": " << scenario.seed_base
     << ", \"pass_s\": "
     << num(std::chrono::duration<double>(Clock::now() - pass_t0).count())
     << ", \"untraced_job_s\": " << num(untraced_s) << ",\n \"setup_s\": [";
  for (std::size_t i = 0; i < setup.size(); ++i) js << (i ? ", " : "") << num(setup[i]);
  js << "],\n";
  if (a.traced) {
    const crypto::PrivateKey key = crypto::PrivateKey::from_seed(0x6e67'6265'6e63'6801ull);
    const crypto::PublicKey pub = key.public_key();
    std::vector<Hash256> msgs;
    std::vector<crypto::Signature> sigs;
    for (int i = 0; i < 16; ++i) {
      const std::string text = "ngbench message " + std::to_string(i);
      msgs.push_back(crypto::sha256(text));
    }
    const double pubkey_s = median_call_s(16, [&](int i) {
      if (!crypto::PrivateKey::from_seed(0x6e67'6265'6e63'6900ull + static_cast<std::uint64_t>(i))
               .public_key()
               .valid())
        throw std::runtime_error("invalid derived public key");
    });
    const double sign_s = median_call_s(16, [&](int i) { sigs.push_back(crypto::sign(key, msgs[static_cast<std::size_t>(i)])); });
    const double verify_s = median_call_s(16, [&](int i) {
      if (!crypto::verify(pub, msgs[static_cast<std::size_t>(i)], sigs[static_cast<std::size_t>(i)]))
        throw std::runtime_error("signature failed to verify");
    });
    js << " \"crypto\": {\"sign_us\": " << num(sign_s * 1e6) << ", \"verify_us\": "
       << num(verify_s * 1e6) << ", \"pubkey_us\": " << num(pubkey_s * 1e6) << "},\n";
  }
  js << " \"jobs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    js << "  {\"point\": " << r.record.point << ", \"ordinal\": " << r.record.ordinal
       << ", \"seed\": " << r.record.seed << ", \"digest\": \"" << hex16(r.record.digest)
       << "\", \"hit\": " << (r.hit ? "true" : "false") << ", \"wall_s\": " << num(r.wall_s)
       << ", \"setup_s\": " << num(r.setup_s) << ", \"events\": " << r.events
       << ", \"messages\": " << r.messages << ", \"bytes\": " << r.bytes
       << ", \"direct\": " << r.direct << ", \"burst\": " << r.burst
       << ", \"blocks\": " << r.blocks << ", \"micro\": " << r.micro
       << ", \"ng_keys\": " << r.ng_keys << ", \"ng_micro\": " << r.ng_micro << "}"
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  js << " ]}\n";
  write_file(dir / "pass.json", js.str());

  std::ostringstream tr;
  auto emit = [&](const JobTrace& t) {
    for (std::size_t i = 0; i < t.spans().size(); ++i) {
      const Span& s = t.spans()[i];
      auto ns = [&](Clock::time_point tp) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - pass_t0).count();
      };
      tr << "{\"job\": " << t.job() << ", \"id\": " << i << ", \"parent\": " << s.parent
         << ", \"name\": \"" << s.name << "\", \"start_ns\": " << ns(s.start)
         << ", \"end_ns\": " << ns(s.end) << "}\n";
    }
  };
  emit(sweep_trace);
  for (const JobTrace& t : traces) emit(t);
  write_file(dir / "trace.jsonl", tr.str());
  return 0;
}

}  // namespace

int spawn_main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "ngbench: usage: ngbench spawn FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("ngbench: fork");
    return 2;
  }
  if (pid == 0) {
    ::execvp(argv[3], argv + 3);
    std::perror("ngbench: exec");
    ::_exit(127);
  }
  int status = 0;
  struct rusage ru {};
  if (::wait4(pid, &status, 0, &ru) != pid) {
    std::perror("ngbench: wait4");
    return 2;
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  const double cpu = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  write_file(argv[2], num(wall) + " " + num(cpu) + " " + std::to_string(ru.ru_maxrss) + "\n");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "spawn") == 0) return spawn_main(argc, argv);
  try {
    const Args a = parse_args(argc, argv);
    return a.mode == "sweep" ? sweep_main(a) : pass_main(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ngbench: %s\n", e.what());
    return 1;
  }
}
