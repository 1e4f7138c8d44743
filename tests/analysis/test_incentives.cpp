#include "analysis/incentives.hpp"

#include <gtest/gtest.h>

namespace bng::analysis {
namespace {

TEST(Incentives, PaperLowerBoundAtQuarter) {
  // §5.1: "Assuming the power of an attacker is bounded by 1/4 ... we obtain
  // r_leader > 37%".
  EXPECT_NEAR(inclusion_lower_bound(0.25), 0.368, 0.001);
}

TEST(Incentives, PaperUpperBoundAtQuarter) {
  // §5.1: "... we obtain r_leader < 43%".
  EXPECT_NEAR(extension_upper_bound(0.25), 0.4286, 0.001);
}

TEST(Incentives, FortyPercentInsideWindowAtQuarter) {
  auto w = fee_window(0.25);
  EXPECT_TRUE(w.feasible);
  EXPECT_LT(w.lower, 0.40);
  EXPECT_GT(w.upper, 0.40);
}

TEST(Incentives, WindowEmptyUnderRushingAdversary) {
  // §5.1 "Optimal Network Assumption": at alpha = 1/3 the bounds become
  // r > 45% and r < 40% — no feasible fee split.
  auto w = fee_window(1.0 / 3.0);
  EXPECT_NEAR(w.lower, 0.4545, 0.001);
  EXPECT_NEAR(w.upper, 0.40, 0.001);
  EXPECT_FALSE(w.feasible);
}

TEST(Incentives, BoundsAtZeroAttacker) {
  EXPECT_DOUBLE_EQ(inclusion_lower_bound(0.0), 0.0);
  EXPECT_DOUBLE_EQ(extension_upper_bound(0.0), 0.5);
  EXPECT_TRUE(fee_window(0.0).feasible);
}

TEST(Incentives, WindowShrinksMonotonically) {
  double prev_width = 1.0;
  for (double alpha = 0.0; alpha < 0.32; alpha += 0.02) {
    auto w = fee_window(alpha);
    double width = w.upper - w.lower;
    EXPECT_LT(width, prev_width) << "alpha " << alpha;
    prev_width = width;
  }
}

TEST(Incentives, MaxFeasibleAlphaBetweenQuarterAndThird) {
  double a = max_feasible_alpha();
  EXPECT_GT(a, 0.25);
  EXPECT_LT(a, 1.0 / 3.0);
  // Just below the boundary the window is feasible, just above it is not.
  EXPECT_TRUE(fee_window(a - 1e-6).feasible);
  EXPECT_FALSE(fee_window(a + 1e-6).feasible);
}

TEST(Incentives, InvalidAlphaThrows) {
  EXPECT_THROW(inclusion_lower_bound(-0.1), std::invalid_argument);
  EXPECT_THROW(extension_upper_bound(1.0), std::invalid_argument);
}

TEST(Incentives, AttackUnprofitableAtPaperSplit) {
  // With r = 40% and alpha = 1/4, hiding the transaction must pay less than
  // honest inclusion.
  const double honest = inclusion_honest_revenue(0.25, 0.40);
  const double attack = inclusion_attack_revenue(0.25, 0.40);
  EXPECT_LT(attack, honest);
}

TEST(Incentives, AttackProfitableBelowLowerBound) {
  // If the leader's share were below the bound (e.g. 30%), the inclusion
  // attack would beat honest behaviour... compare against the *honest*
  // revenue of simply placing the tx (r) as the paper's inequality does.
  const double r = 0.30;
  const double attack = inclusion_attack_revenue(0.25, r);
  EXPECT_GT(attack, r);
}

TEST(Incentives, MonteCarloMatchesClosedForm) {
  Rng rng(42);
  for (double alpha : {0.1, 0.25, 0.33}) {
    for (double r : {0.30, 0.40, 0.50}) {
      double sim = simulate_inclusion_attack(alpha, r, 400'000, rng);
      double closed = inclusion_attack_revenue(alpha, r);
      EXPECT_NEAR(sim, closed, 0.005) << "alpha=" << alpha << " r=" << r;
    }
  }
}

TEST(Incentives, CensorshipWaitMatchesPaper) {
  // §5.2: 3/4 honest -> 4/3 blocks -> 13.33 minutes at 10-minute intervals.
  EXPECT_NEAR(expected_wait_blocks(0.75), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(expected_wait_seconds(0.75, 600), 800.0, 1e-9);
  EXPECT_DOUBLE_EQ(expected_wait_blocks(1.0), 1.0);
}

TEST(Incentives, CensorshipRejectsBadFraction) {
  EXPECT_THROW(expected_wait_blocks(0.0), std::invalid_argument);
  EXPECT_THROW(expected_wait_blocks(1.5), std::invalid_argument);
}

class FeeWindowSweep : public ::testing::TestWithParam<double> {};

TEST_P(FeeWindowSweep, BoundsAreOrderedAndInUnitInterval) {
  const double alpha = GetParam();
  auto w = fee_window(alpha);
  EXPECT_GE(w.lower, 0.0);
  EXPECT_LE(w.upper, 0.5);
  if (w.feasible) {
    EXPECT_LT(w.lower, w.upper);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, FeeWindowSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.33, 0.4,
                                           0.49));

}  // namespace
}  // namespace bng::analysis
