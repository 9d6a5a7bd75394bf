// Algorithm 1 unit tests: stationarity detection, per-module tolerance, unfreeze on
// LR drop with window halving, protected tail, no unfreeze without annealing.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/freezing_policy.h"

namespace egeria {
namespace {

EgeriaConfig SmallConfig() {
  EgeriaConfig cfg;
  cfg.window_w = 4;
  cfg.tolerance_coef = 0.2;
  return cfg;
}

// Feeds a plasticity series; returns the iteration at which the stage froze, or -1.
int64_t FeedSeries(FreezingPolicy& policy, int stage, const std::vector<double>& series,
                   float lr = 0.1F) {
  int64_t iter = 0;
  for (double v : series) {
    iter += 10;
    auto d = policy.OnPlasticity(stage, v, lr, iter);
    if (d && d->kind == FreezeDecision::Kind::kFreezeUpTo) {
      return iter;
    }
  }
  return -1;
}

TEST(FreezingPolicy, FreezesAfterDecreaseThenPlateau) {
  FreezingPolicy policy(SmallConfig(), /*num_stages=*/4, /*annealing=*/true);
  std::vector<double> series;
  for (int i = 0; i < 8; ++i) {
    series.push_back(1.0 - 0.1 * i);  // Decreasing: slope well above tolerance.
  }
  for (int i = 0; i < 20; ++i) {
    series.push_back(0.2);  // Plateau.
  }
  const int64_t frozen_at = FeedSeries(policy, 0, series);
  EXPECT_GT(frozen_at, 0);
  EXPECT_EQ(policy.frontier(), 1);
}

TEST(FreezingPolicy, DoesNotFreezeWhileSteadilyDecreasing) {
  FreezingPolicy policy(SmallConfig(), 4, true);
  std::vector<double> series;
  for (int i = 0; i < 40; ++i) {
    series.push_back(10.0 - 0.2 * i);  // Constant slope, never stationary.
  }
  EXPECT_EQ(FeedSeries(policy, 0, series), -1);
  EXPECT_EQ(policy.frontier(), 0);
}

TEST(FreezingPolicy, NoisyPlateauStillFreezes) {
  // The moving average + linear fit must absorb SGD-style noise.
  FreezingPolicy policy(SmallConfig(), 4, true);
  std::vector<double> series;
  for (int i = 0; i < 6; ++i) {
    series.push_back(2.0 - 0.3 * i);
  }
  for (int i = 0; i < 30; ++i) {
    series.push_back(0.2 + 0.01 * ((i % 2 == 0) ? 1 : -1));
  }
  EXPECT_GT(FeedSeries(policy, 0, series), 0);
}

TEST(FreezingPolicy, IgnoresStaleStageEvaluations) {
  FreezingPolicy policy(SmallConfig(), 4, true);
  // Evaluations for a non-frontier stage are dropped (late async deliveries).
  EXPECT_FALSE(policy.OnPlasticity(2, 1.0, 0.1F, 10).has_value());
  EXPECT_EQ(policy.frontier(), 0);
}

TEST(FreezingPolicy, ToleranceIsPerModule) {
  FreezingPolicy policy(SmallConfig(), 4, true);
  std::vector<double> steep;
  for (int i = 0; i < 10; ++i) {
    steep.push_back(100.0 - 10.0 * i);
  }
  for (int i = 0; i < 20; ++i) {
    steep.push_back(0.0);
  }
  FeedSeries(policy, 0, steep);
  ASSERT_EQ(policy.frontier(), 1);
  // Stage 0's tolerance derives from slopes of magnitude ~10 x 0.2 = 2.
  EXPECT_GT(policy.ToleranceOf(0), 0.1);
  // Stage 1 (fresh) has no tolerance yet.
  EXPECT_LT(policy.ToleranceOf(1), 0.0);
}

TEST(FreezingPolicy, SequentialModulesFreezeInOrder) {
  FreezingPolicy policy(SmallConfig(), 5, true);
  std::vector<double> plateau_after_drop;
  for (int i = 0; i < 5; ++i) {
    plateau_after_drop.push_back(1.0 - 0.15 * i);
  }
  for (int i = 0; i < 15; ++i) {
    plateau_after_drop.push_back(0.25);
  }
  EXPECT_GT(FeedSeries(policy, 0, plateau_after_drop), 0);
  EXPECT_EQ(policy.frontier(), 1);
  EXPECT_GT(FeedSeries(policy, 1, plateau_after_drop), 0);
  EXPECT_EQ(policy.frontier(), 2);
  EXPECT_GT(FeedSeries(policy, 2, plateau_after_drop), 0);
  EXPECT_EQ(policy.frontier(), 3);
  // Stage 3 is the max freezable (the head, stage 4 of 5, is protected).
  EXPECT_EQ(policy.MaxFreezable(), 3);
}

TEST(FreezingPolicy, ProtectedTailNeverFreezes) {
  FreezingPolicy policy(SmallConfig(), 2, true);
  // MaxFreezable = 2 - 1 - 1 = 0: only stage 0 may freeze, never the head.
  EXPECT_EQ(policy.MaxFreezable(), 0);
  std::vector<double> plateau(30, 0.1);
  FeedSeries(policy, 0, plateau);
  EXPECT_EQ(policy.frontier(), 1);
  // Frontier is now beyond MaxFreezable: further evaluations are inert.
  EXPECT_FALSE(policy.OnPlasticity(1, 0.1, 0.1F, 999).has_value());
  EXPECT_EQ(policy.frontier(), 1);
}

TEST(FreezingPolicy, UnfreezesOnTenXLrDropAndHalvesWindow) {
  FreezingPolicy policy(SmallConfig(), 4, /*annealing=*/true);
  std::vector<double> plateau(30, 0.5);
  FeedSeries(policy, 0, plateau, /*lr=*/0.1F);
  ASSERT_EQ(policy.frontier(), 1);
  const int window_before = policy.window();

  // LR drops by 2x: no unfreeze.
  EXPECT_FALSE(policy.OnLr(0.05F, 400).has_value());
  // LR drops to 10%: unfreeze all, window halves.
  auto d = policy.OnLr(0.01F, 500);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, FreezeDecision::Kind::kUnfreezeAll);
  EXPECT_EQ(policy.frontier(), 0);
  EXPECT_EQ(policy.window(), std::max(2, window_before / 2));
}

TEST(FreezingPolicy, RefreezeIsFasterAfterUnfreeze) {
  FreezingPolicy policy(SmallConfig(), 4, true);
  std::vector<double> plateau(40, 0.5);
  const int64_t first = FeedSeries(policy, 0, plateau, 0.1F);
  ASSERT_GT(first, 0);
  policy.OnLr(0.005F, 1000);  // unfreeze; window halves 4 -> 2
  ASSERT_EQ(policy.frontier(), 0);
  const int64_t second = FeedSeries(policy, 0, plateau, 0.005F);
  ASSERT_GT(second, 0);
  // Relaxed criteria: fewer evaluations needed the second time.
  EXPECT_LT(second, first);
}

TEST(FreezingPolicy, NoUnfreezeWithoutPriorFreeze) {
  FreezingPolicy policy(SmallConfig(), 4, true);
  EXPECT_FALSE(policy.OnLr(1e-9F, 10).has_value());
}

TEST(FreezingPolicy, NonAnnealingScheduleNeverUnfreezes) {
  FreezingPolicy policy(SmallConfig(), 4, /*annealing=*/false);
  std::vector<double> plateau(30, 0.5);
  FeedSeries(policy, 0, plateau);
  ASSERT_EQ(policy.frontier(), 1);
  EXPECT_FALSE(policy.OnLr(1e-9F, 100).has_value());
  EXPECT_EQ(policy.frontier(), 1);
}

TEST(FreezingPolicy, FlatFromStartUsesToleranceFloor) {
  // A module whose plasticity is flat from the first reading must still freeze
  // (tolerance floor), not dead-lock on a zero tolerance.
  FreezingPolicy policy(SmallConfig(), 4, true);
  std::vector<double> flat(30, 0.42);
  EXPECT_GT(FeedSeries(policy, 0, flat), 0);
}

}  // namespace
}  // namespace egeria
