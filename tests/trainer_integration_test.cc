// End-to-end Trainer integration: convergence, Egeria freezing without accuracy
// loss, cache-consistency (training with the activation cache is numerically
// identical to training without it), baselines, and the bootstrap gate.
#include <gtest/gtest.h>

#include "src/baselines/freeze_baselines.h"
#include "src/core/module_partitioner.h"
#include "src/core/trainer.h"
#include "src/data/synthetic_image.h"
#include "src/models/resnet.h"
#include "src/optim/lr_scheduler.h"

namespace egeria {
namespace {

struct Workload {
  std::unique_ptr<StageChainModel> model;
  std::unique_ptr<SyntheticImageDataset> train;
  std::unique_ptr<SyntheticImageDataset> val;
};

Workload MakeWorkload(uint64_t seed = 3, int stages = 4) {
  Workload w;
  Rng rng(seed);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 1;
  mcfg.base_width = 8;
  mcfg.num_classes = 4;
  w.model = PartitionIntoChain("resnet", BuildCifarResNetBlocks(mcfg, rng),
                               PartitionConfig{.target_modules = stages});
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 256;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.noise_std = 0.5F;
  w.train = std::make_unique<SyntheticImageDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 64;
  w.val = std::make_unique<SyntheticImageDataset>(vcfg);
  return w;
}

TrainConfig BaseConfig(int epochs = 6) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 16;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.val_batches = 4;
  return cfg;
}

TEST(TrainerIntegration, VanillaTrainingConverges) {
  Workload w = MakeWorkload();
  TrainConfig cfg = BaseConfig();
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  TrainResult r = trainer.Run();
  EXPECT_GT(r.final_metric.display, 0.85);
  EXPECT_EQ(r.iterations, 6 * (256 / 16));
  EXPECT_EQ(r.final_frontier, 0);
  EXPECT_TRUE(r.freeze_events.empty());
}

TEST(TrainerIntegration, TargetAccuracyYieldsTta) {
  Workload w = MakeWorkload();
  TrainConfig cfg = BaseConfig();
  cfg.target_score = 0.6;
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  TrainResult r = trainer.Run();
  EXPECT_TRUE(r.reached_target);
  EXPECT_GT(r.tta_seconds, 0.0);
  EXPECT_LE(r.tta_seconds, r.total_train_seconds + 1e-9);
}

TEST(TrainerIntegration, EgeriaFreezesWithoutAccuracyLoss) {
  Workload wa = MakeWorkload(5);
  TrainConfig base = BaseConfig(8);
  Trainer vanilla(*wa.model, *wa.train, *wa.val, base);
  TrainResult rv = vanilla.Run();

  Workload wb = MakeWorkload(5);  // Same seed -> identical init.
  TrainConfig cfg = BaseConfig(8);
  cfg.enable_egeria = true;
  cfg.egeria.eval_interval_n = 8;
  cfg.egeria.window_w = 3;
  cfg.egeria.enable_cache = true;
  cfg.egeria.max_bootstrap_iters = 16;
  cfg.egeria.ref_update_evals = 2;  // Frequent refresh smooths the plasticity curve.
  Trainer egeria(*wb.model, *wb.train, *wb.val, cfg);
  TrainResult re = egeria.Run();

  EXPECT_GT(re.final_frontier, 0) << "Egeria froze nothing";
  EXPECT_GT(re.evals_submitted, 0);
  EXPECT_GE(re.bootstrap_end_iter, 0);
  // Accuracy preserved within noise (the paper's headline property).
  EXPECT_GT(re.final_metric.display, rv.final_metric.display - 0.06);
}

TEST(TrainerIntegration, CacheDoesNotChangeTrainingNumerics) {
  // With a deterministic freeze point, training with the activation cache must be
  // numerically identical to training without it: cached activations equal the
  // recomputed ones because the frozen prefix is input-deterministic.
  auto run = [](bool enable_cache) {
    Workload w = MakeWorkload(7);
    TrainConfig cfg = BaseConfig(5);
    cfg.enable_egeria = true;
    cfg.egeria.eval_interval_n = 1 << 20;  // No plasticity evals.
    cfg.egeria.enable_cache = enable_cache;
    StaticFreezeHook hook(/*epoch=*/1, /*stage=*/1);
    Trainer trainer(*w.model, *w.train, *w.val, cfg);
    trainer.SetFreezeHook(&hook);
    TrainResult r = trainer.Run();
    std::vector<float> weights;
    for (Parameter* p : w.model->ParamsFrom(0)) {
      weights.insert(weights.end(), p->value.Data(), p->value.Data() + p->value.NumEl());
    }
    return std::make_pair(r, weights);
  };
  auto [r_cache, w_cache] = run(true);
  auto [r_plain, w_plain] = run(false);
  EXPECT_GT(r_cache.fp_skip_count, 0) << "cache never hit";
  ASSERT_EQ(w_cache.size(), w_plain.size());
  for (size_t i = 0; i < w_cache.size(); ++i) {
    ASSERT_EQ(w_cache[i], w_plain[i]) << "weight divergence at " << i;
  }
}

TEST(TrainerIntegration, UnfreezeOnLrDrop) {
  Workload w = MakeWorkload(9);
  TrainConfig cfg = BaseConfig(12);
  const int64_t ipe = 256 / 16;
  // The 20x drop comes late (epoch 10) so the first freeze (typically ~epoch 7 under
  // this schedule) precedes it.
  cfg.lr_schedule = std::make_shared<StepDecayLr>(
      0.05F, 0.05F, std::vector<int64_t>{10 * ipe});
  cfg.enable_egeria = true;
  cfg.egeria.eval_interval_n = 8;
  cfg.egeria.window_w = 3;
  cfg.egeria.enable_cache = false;
  cfg.egeria.max_bootstrap_iters = 16;
  cfg.egeria.ref_update_evals = 2;
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  TrainResult r = trainer.Run();
  bool saw_freeze = false;
  bool saw_unfreeze_after_freeze = false;
  for (const auto& e : r.freeze_events) {
    if (!e.unfreeze) {
      saw_freeze = true;
    } else if (saw_freeze) {
      saw_unfreeze_after_freeze = true;
      EXPECT_GE(e.iter, 10 * ipe);
    }
  }
  EXPECT_TRUE(saw_freeze);
  EXPECT_TRUE(saw_unfreeze_after_freeze);
}

TEST(TrainerIntegration, StaticFreezeHookFreezesAtEpoch) {
  Workload w = MakeWorkload(11);
  TrainConfig cfg = BaseConfig(3);
  StaticFreezeHook hook(1, 0);
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  trainer.SetFreezeHook(&hook);
  TrainResult r = trainer.Run();
  ASSERT_EQ(r.freeze_events.size(), 1u);
  EXPECT_EQ(r.freeze_events[0].frontier_after, 1);
  EXPECT_EQ(r.final_frontier, 1);
}

TEST(TrainerIntegration, FrontierObserverFiresAndFrozenStateIsReleased) {
  Workload w = MakeWorkload(11);
  TrainConfig cfg = BaseConfig(3);
  StaticFreezeHook hook(1, 0);
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  trainer.SetFreezeHook(&hook);
  struct Move {
    int from;
    int to;
    int64_t iter;
  };
  std::vector<Move> moves;
  trainer.SetFrontierObserver(
      [&](int from, int to, int64_t iter) { moves.push_back({from, to, iter}); });
  TrainResult r = trainer.Run();
  ASSERT_EQ(moves.size(), 1U);
  EXPECT_EQ(moves[0].from, 0);
  EXPECT_EQ(moves[0].to, 1);
  EXPECT_EQ(r.final_frontier, 1);
  // The frozen prefix's momentum was released: resident optimizer state covers
  // exactly the still-active parameters (every active param has stepped).
  int64_t active_bytes = 0;
  for (Parameter* p : w.model->ParamsFrom(1)) {
    active_bytes += p->value.NumEl() * static_cast<int64_t>(sizeof(float));
  }
  EXPECT_EQ(trainer.OptimizerStateBytes(), active_bytes);
  EXPECT_LT(active_bytes,
            w.model->TotalParamCount() * static_cast<int64_t>(sizeof(float)));
}

TEST(TrainerIntegration, AutoFreezeHookFreezesOnGradNormDecay) {
  Workload w = MakeWorkload(13);
  TrainConfig cfg = BaseConfig(8);
  AutoFreezeConfig acfg;
  acfg.eval_interval = 4;
  acfg.window = 3;
  acfg.threshold_frac = 0.9;  // Permissive so it fires within the test budget.
  AutoFreezeHook hook(acfg);
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  trainer.SetFreezeHook(&hook);
  TrainResult r = trainer.Run();
  EXPECT_GT(r.final_frontier, 0);
}

TEST(TrainerIntegration, FreezeOutFollowsSchedule) {
  Workload w = MakeWorkload(15);
  TrainConfig cfg = BaseConfig(6);
  FreezeOutConfig fcfg;
  fcfg.t_end_frac = 0.5;
  fcfg.cubic = false;
  FreezeOutHook hook(fcfg);
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  trainer.SetFreezeHook(&hook);
  TrainResult r = trainer.Run();
  // Linear schedule over 3 freezable modules ending at 50% of training.
  EXPECT_EQ(r.final_frontier, 3);
  EXPECT_GE(r.freeze_events.size(), 3u);
  const int64_t total = r.iterations;
  EXPECT_LE(r.freeze_events.back().iter, total / 2 + 2);
}

TEST(TrainerIntegration, ControllerThreadRunsAreBitwiseEqual) {
  // The shipped controller: its own thread, every field at its default but
  // the schedule knobs that make it freeze within the test. Each decision
  // lands at the drain of the iteration after its evaluation, so two runs
  // agree bit for bit.
  auto run = [] {
    Workload w = MakeWorkload(17);
    TrainConfig cfg = BaseConfig(8);
    cfg.enable_egeria = true;
    cfg.egeria.eval_interval_n = 8;
    cfg.egeria.window_w = 3;
    cfg.egeria.max_bootstrap_iters = 16;
    cfg.egeria.ref_update_evals = 2;
    Trainer trainer(*w.model, *w.train, *w.val, cfg);
    TrainResult r = trainer.Run();
    std::vector<float> weights;
    for (Parameter* p : w.model->ParamsFrom(0)) {
      weights.insert(weights.end(), p->value.Data(), p->value.Data() + p->value.NumEl());
    }
    return std::make_pair(r, weights);
  };
  auto [ra, wa] = run();
  auto [rb, wb] = run();
  ASSERT_FALSE(ra.plasticity.empty()) << "no evaluation ran";
  ASSERT_FALSE(ra.freeze_events.empty()) << "Egeria froze nothing";
  EXPECT_FALSE(ra.freeze_events.front().unfreeze);
  EXPECT_GT(ra.final_metric.display, 0.8);
  ASSERT_EQ(ra.freeze_events.size(), rb.freeze_events.size());
  for (size_t i = 0; i < ra.freeze_events.size(); ++i) {
    EXPECT_EQ(ra.freeze_events[i].iter, rb.freeze_events[i].iter);
    EXPECT_EQ(ra.freeze_events[i].unfreeze, rb.freeze_events[i].unfreeze);
    EXPECT_EQ(ra.freeze_events[i].frontier_after, rb.freeze_events[i].frontier_after);
  }
  ASSERT_EQ(ra.plasticity.size(), rb.plasticity.size());
  for (size_t i = 0; i < ra.plasticity.size(); ++i) {
    EXPECT_EQ(ra.plasticity[i].iter, rb.plasticity[i].iter);
    EXPECT_EQ(ra.plasticity[i].raw, rb.plasticity[i].raw);
  }
  ASSERT_EQ(wa.size(), wb.size());
  for (size_t i = 0; i < wa.size(); ++i) {
    ASSERT_EQ(wa[i], wb[i]) << "weight divergence at " << i;
  }
}

}  // namespace
}  // namespace egeria
