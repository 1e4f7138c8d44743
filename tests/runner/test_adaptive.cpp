// Adaptive frontier sweeps: the bisection driver must reproduce the dense
// grid's crossover exactly — same frontier artifacts, bit-identical records
// at every evaluated point — while dispatching a fraction of its jobs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "runner/adaptive.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace bng::runner {
namespace {

/// A 9-value refine axis over block size. Propagation delay grows strictly
/// with block size (bandwidth-dominated), so the predicate
/// prop_delay_p50_s > 3 crosses exactly once — the monotone case where the
/// adaptive frontier provably equals the dense grid's.
Scenario adaptive_mini(const std::string& extra_lines = {}) {
  const std::string text =
      "name = adaptive_mini\n"
      "seed_base = 7600\n"
      "base.protocol = bitcoin\n"
      "base.block_interval = 8\n" +
      extra_lines +
      "axis.max_block_size = 1000, 2000, 4000, 8000, 16000, 32000, 64000, "
      "128000, 256000\n"
      "refine.axis = max_block_size\n"
      "refine.metric = prop_delay_p50_s\n"
      "refine.threshold = 3\n"
      "refine.coarse = 3\n";
  return load_scenario_string(text, "<test>", RunKnobs{16, 3});
}

AdaptiveOptions adaptive_options(std::uint32_t seeds, std::uint32_t jobs,
                                 bool dense = false) {
  AdaptiveOptions opt;
  opt.sweep.seeds = seeds;
  opt.sweep.jobs = jobs;
  opt.dense = dense;
  return opt;
}

TEST(Adaptive, MatchesDenseOracleWithFewerJobs) {
  const Scenario s = adaptive_mini();
  const AdaptiveResult refined = run_adaptive(s, adaptive_options(2, 2));
  const AdaptiveResult dense = run_adaptive(s, adaptive_options(2, 2, true));

  // The dense run is the oracle: every point evaluated.
  EXPECT_EQ(dense.evaluated.size(), 9u);
  EXPECT_EQ(dense.jobs_dispatched, 18u);
  EXPECT_EQ(refined.dense_points, 9u);
  EXPECT_EQ(refined.dense_jobs, 18u);

  // The refined run evaluated a strict subset (coarse {0,4,8} + bisection)
  // yet emits byte-identical frontier artifacts.
  EXPECT_LT(refined.evaluated.size(), dense.evaluated.size());
  EXPECT_LT(refined.jobs_dispatched, dense.jobs_dispatched);
  EXPECT_EQ(frontier_json(s, refined), frontier_json(s, dense));
  EXPECT_EQ(frontier_csv(refined), frontier_csv(dense));

  ASSERT_EQ(refined.frontier.size(), 1u);
  EXPECT_TRUE(refined.frontier[0].found);
  // The bracket tightened to adjacent grid values around the crossover.
  EXPECT_DOUBLE_EQ(refined.frontier[0].lo_x, 16000.0);
  EXPECT_DOUBLE_EQ(refined.frontier[0].hi_x, 32000.0);

  // Refined points keep their dense-grid job identity: records are
  // bit-identical to the dense run's at the same dense index.
  for (std::size_t k = 0; k < refined.evaluated.size(); ++k) {
    const PointResult& rp = refined.sweep.points[k];
    const PointResult& dp = dense.sweep.points[refined.evaluated[k]];
    ASSERT_EQ(rp.seeds.size(), dp.seeds.size());
    for (std::size_t i = 0; i < rp.seeds.size(); ++i) {
      EXPECT_EQ(rp.seeds[i].seed, dp.seeds[i].seed);
      EXPECT_EQ(rp.seeds[i].digest, dp.seeds[i].digest)
          << "dense index " << refined.evaluated[k] << " ordinal " << i;
    }
  }
}

TEST(Adaptive, RefinesOnAnAttackerReportField) {
  // A scenario file has no extra hook, so relative_gain is not a record
  // value: it lives only in each record's attacker report, and the
  // predicate must read it from there.
  const Scenario s = load_scenario_string(
      "name = attack_refine\n"
      "seed_base = 9700\n"
      "base.protocol = bitcoin\n"
      "base.block_interval = 10\n"
      "base.max_block_size = 4000\n"
      "base.drain_time = 60\n"
      "base.adversary = selfish\n"
      "base.adversary_node = 0\n"
      "base.adversary_gamma = 0.5\n"
      "axis.adversary_share = 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45\n"
      "refine.axis = adversary_share\n"
      "refine.metric = relative_gain\n"
      "refine.threshold = 0\n"
      "refine.coarse = 3\n",
      "<test>", RunKnobs{10, 400});
  const AdaptiveResult refined = run_adaptive(s, adaptive_options(2, 2));
  const AdaptiveResult dense = run_adaptive(s, adaptive_options(2, 2, true));

  for (const PointResult& p : dense.sweep.points)
    for (const RunRecord& rec : p.seeds) {
      ASSERT_TRUE(rec.attacker.has_value());
      for (const auto& [name, value] : rec.values) EXPECT_NE(name, "relative_gain");
    }
  EXPECT_LT(refined.jobs_dispatched, dense.jobs_dispatched);
  EXPECT_EQ(frontier_json(s, refined), frontier_json(s, dense));
  ASSERT_EQ(refined.frontier.size(), 1u);
  const FrontierRow& row = refined.frontier[0];
  ASSERT_TRUE(row.found);
  EXPECT_LE(row.lo_value, 0.0);
  EXPECT_GT(row.hi_value, 0.0);
  // The bracket's values are the seed means of the attacker reports' gains.
  int bracket_points = 0;
  for (const PointResult& p : dense.sweep.points) {
    if (p.x != row.lo_x && p.x != row.hi_x) continue;
    double sum = 0;
    for (const RunRecord& rec : p.seeds) sum += rec.attacker->relative_gain;
    EXPECT_EQ(sum / static_cast<double>(p.seeds.size()),
              p.x == row.lo_x ? row.lo_value : row.hi_value);
    ++bracket_points;
  }
  EXPECT_EQ(bracket_points, 2);
}

TEST(Adaptive, EveryGroupGetsItsOwnFrontierRow) {
  // A second (non-refine) axis splits the grid into groups; each gets an
  // independent bisection and its own frontier row, in dense group order.
  const Scenario s = adaptive_mini("axis.block_interval = 8, 12\n");
  const AdaptiveResult r = run_adaptive(s, adaptive_options(1, 2));
  EXPECT_EQ(r.dense_points, 18u);
  ASSERT_EQ(r.frontier.size(), 2u);
  EXPECT_EQ(r.frontier[0].group, "block_interval=8");
  EXPECT_EQ(r.frontier[1].group, "block_interval=12");
  for (const FrontierRow& row : r.frontier) {
    EXPECT_TRUE(row.found) << row.group;
    EXPECT_LT(row.lo_x, row.hi_x);
    EXPECT_GE(row.crossover_x, row.lo_x);
    EXPECT_LE(row.crossover_x, row.hi_x);
  }
}

TEST(Adaptive, RequiresARefineSpec) {
  Scenario s = adaptive_mini();
  s.refine.reset();
  EXPECT_THROW(run_adaptive(s, adaptive_options(1, 1)), std::runtime_error);
}

TEST(Adaptive, RefineGrammarRejectsBadSpecs) {
  // refine.* without a metric is unusable.
  EXPECT_THROW(load_scenario_string("name = x\n"
                                    "axis.nodes = 8, 12\n"
                                    "refine.axis = nodes\n",
                                    "<test>", RunKnobs{16, 3}),
               std::runtime_error);
  // The refine axis must name an axis defined in the same file.
  EXPECT_THROW(load_scenario_string("name = x\n"
                                    "axis.nodes = 8, 12\n"
                                    "refine.axis = gamma\n"
                                    "refine.metric = tx_per_sec\n",
                                    "<test>", RunKnobs{16, 3}),
               std::runtime_error);
  // Unknown refine.* sub-keys are errors, not silent ignores.
  EXPECT_THROW(load_scenario_string("name = x\n"
                                    "axis.nodes = 8, 12\n"
                                    "refine.axis = nodes\n"
                                    "refine.metric = tx_per_sec\n"
                                    "refine.bogus = 1\n",
                                    "<test>", RunKnobs{16, 3}),
               std::runtime_error);
}

TEST(Adaptive, UnknownMetricNamesTheMetricInTheError) {
  Scenario s = adaptive_mini();
  s.refine->metric = "no_such_metric";
  try {
    run_adaptive(s, adaptive_options(1, 1));
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_metric"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bng::runner
