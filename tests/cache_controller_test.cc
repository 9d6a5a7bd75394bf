// Activation cache (store/fetch/invalidation/budget) and the controller's
// end-to-end decision flow through its thread.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/activation_cache.h"
#include "src/core/controller.h"
#include "src/core/module_partitioner.h"
#include "src/models/resnet.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

constexpr uint64_t kGeneration = 1;
constexpr int64_t kSamples = 64;
constexpr int64_t kBudget = int64_t{1} << 20;

TEST(ActivationCache, StoreFetchRoundTrip) {
  ActivationCache cache(kSamples, kBudget);
  cache.SetKey(2, kGeneration);
  Rng rng(1);
  Tensor act = Tensor::Randn({4, 3, 2, 2}, rng);
  std::vector<int64_t> ids{10, 20, 30, 40};
  ASSERT_TRUE(cache.StoreBatch(ids, act));
  ASSERT_TRUE(cache.HasAll(ids));
  Tensor fetched = cache.FetchBatch(ids);
  ASSERT_TRUE(fetched.Defined());
  ASSERT_EQ(fetched.Shape(), act.Shape());
  for (int64_t i = 0; i < act.NumEl(); ++i) {
    EXPECT_EQ(fetched.Data()[i], act.Data()[i]);
  }
  // One table row per sample id, allocated on the first store.
  EXPECT_EQ(cache.Stats().table_bytes, kSamples * 12 * static_cast<int64_t>(sizeof(float)));
  EXPECT_EQ(cache.Stats().bytes_written, 4 * 12 * static_cast<int64_t>(sizeof(float)));
}

TEST(ActivationCache, FetchInDifferentOrderReassembles) {
  ActivationCache cache(kSamples, kBudget);
  cache.SetKey(0, kGeneration);
  Rng rng(2);
  Tensor act = Tensor::Randn({3, 2}, rng);
  cache.StoreBatch({1, 2, 3}, act);
  Tensor fetched = cache.FetchBatch({3, 1, 2});
  ASSERT_TRUE(fetched.Defined());
  EXPECT_EQ(fetched.At(0, 0), act.At(2, 0));
  EXPECT_EQ(fetched.At(1, 0), act.At(0, 0));
  EXPECT_EQ(fetched.At(2, 0), act.At(1, 0));
}

TEST(ActivationCache, MissingIdReturnsUndefined) {
  ActivationCache cache(kSamples, kBudget);
  cache.SetKey(0, kGeneration);
  Rng rng(3);
  cache.StoreBatch({1, 2}, Tensor::Randn({2, 4}, rng));
  EXPECT_FALSE(cache.HasAll({1, 2, 3}));
  EXPECT_FALSE(cache.FetchBatch({1, 3}).Defined());
  EXPECT_GT(cache.Stats().misses, 0);
}

TEST(ActivationCache, StageChangeInvalidates) {
  ActivationCache cache(kSamples, kBudget);
  cache.SetKey(0, kGeneration);
  Rng rng(5);
  cache.StoreBatch({7}, Tensor::Randn({1, 4}, rng));
  ASSERT_TRUE(cache.HasAll({7}));
  // Frontier advanced: the old boundary is useless.
  cache.SetKey(1, kGeneration);
  EXPECT_FALSE(cache.HasAll({7}));
  cache.SetKey(1, kGeneration);  // No-op.
}

TEST(ActivationCache, ClearDropsEverything) {
  ActivationCache cache(kSamples, kBudget);
  cache.SetKey(3, kGeneration);
  Rng rng(6);
  cache.StoreBatch({1, 2}, Tensor::Randn({2, 4}, rng));
  cache.Clear();
  EXPECT_FALSE(cache.HasAll({1}));
  EXPECT_EQ(cache.Stats().table_bytes, 0);
  EXPECT_EQ(cache.stage(), 3);  // Stage survives Clear (same frontier, new weights).
}

TEST(ActivationCache, TableOverBudgetAllocatesNothingAndNeverServes) {
  // 64 samples x 4 floats = 1024 bytes of table against a 1023-byte budget.
  ActivationCache cache(kSamples, /*budget_bytes=*/kSamples * 4 * 4 - 1);
  cache.SetKey(0, kGeneration);
  Rng rng(8);
  const std::vector<int64_t> ids{1, 2, 3};
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(cache.StoreBatch(ids, Tensor::Randn({3, 4}, rng)));
    EXPECT_FALSE(cache.HasAll(ids));
    EXPECT_FALSE(cache.FetchBatch(ids).Defined());
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.table_bytes, 0);
  EXPECT_EQ(stats.stores, 0);
  EXPECT_EQ(stats.bytes_written, 0);
  EXPECT_EQ(stats.hits, 0);

  // A table that fits exactly is allocated and serves.
  ActivationCache fits(kSamples, /*budget_bytes=*/kSamples * 4 * 4);
  fits.SetKey(0, kGeneration);
  EXPECT_TRUE(fits.StoreBatch(ids, Tensor::Randn({3, 4}, rng)));
  EXPECT_TRUE(fits.FetchBatch(ids).Defined());
}

class ControllerTest : public ::testing::Test {
 protected:
  std::unique_ptr<StageChainModel> MakeModel() {
    Rng rng(11);
    CifarResNetConfig mcfg;
    mcfg.blocks_per_stage = 1;
    mcfg.base_width = 4;
    return PartitionIntoChain("m", BuildCifarResNetBlocks(mcfg, rng),
                              PartitionConfig{.target_modules = 4});
  }

  EgeriaConfig Config() {
    EgeriaConfig cfg;
    cfg.window_w = 3;
    cfg.ref_update_evals = 100;  // No refresh during the test.
    return cfg;
  }
};

TEST_F(ControllerTest, DrainWaitsForTheFreezeDecision) {
  auto model = MakeModel();
  EgeriaController controller(Config(), model->NumStages(), /*annealing=*/true);
  EXPECT_TRUE(controller.WantsSnapshot());
  InferenceFactory float_factory;
  controller.SubmitSnapshot(model->CloneForInference(float_factory));
  controller.WaitIdle();
  EXPECT_TRUE(controller.HasReference());

  // Identical model & reference (modulo int8) with frozen weights: plasticity is
  // constant, so after 3 (tolerance) + window evaluations the stage must freeze.
  // Each drain waits for the evaluation just submitted, so the decision lands
  // at the first drain after the evaluation that made it.
  Rng rng(12);
  model->SetTraining(false);  // Keep BN deterministic across evals.
  Batch batch;
  batch.input = Tensor::Randn({4, 3, 8, 8}, rng);
  std::vector<FreezeDecision> decisions;
  for (int64_t iter = 1; iter <= 12 && decisions.empty(); ++iter) {
    model->ForwardFrom(0, batch.input);
    EvalRequest req;
    req.batch = batch;
    req.train_act = model->StageOutput(0);
    req.stage = 0;
    req.lr = 0.1F;
    req.iter = iter;
    controller.SubmitEval(std::move(req));
    decisions = controller.DrainDecisions();
    EXPECT_EQ(controller.EvalsDone(), iter);
  }
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, FreezeDecision::Kind::kFreezeUpTo);
  EXPECT_EQ(decisions[0].stage, 0);
  EXPECT_EQ(controller.Frontier(), 1);
  EXPECT_GE(controller.EvalsDone(), 6);
  EXPECT_FALSE(controller.PlasticityHistory().empty());
  EXPECT_GT(controller.LastQuantizeSeconds(), 0.0);
}

TEST_F(ControllerTest, RequestsSnapshotRefresh) {
  auto model = MakeModel();
  EgeriaConfig cfg = Config();
  cfg.ref_update_evals = 2;
  EgeriaController controller(cfg, model->NumStages(), true);
  InferenceFactory float_factory;
  controller.SubmitSnapshot(model->CloneForInference(float_factory));
  controller.WaitIdle();
  EXPECT_FALSE(controller.WantsSnapshot());

  Rng rng(13);
  model->SetTraining(false);
  Batch batch;
  batch.input = Tensor::Randn({2, 3, 8, 8}, rng);
  for (int64_t iter = 1; iter <= 2; ++iter) {
    model->ForwardFrom(0, batch.input);
    EvalRequest req;
    req.batch = batch;
    req.train_act = model->StageOutput(0);
    req.stage = 0;
    req.lr = 0.1F;
    req.iter = iter;
    controller.SubmitEval(std::move(req));
    controller.WaitIdle();
  }
  EXPECT_TRUE(controller.WantsSnapshot());
}

TEST_F(ControllerTest, SaveStateCapturesTheEvaluationsInFlight) {
  // Saved right after submissions, as a checkpoint at the end of an
  // evaluating iteration is: the save must wait for the thread, so the
  // restored controller has seen every submitted evaluation.
  auto model = MakeModel();
  EgeriaController controller(Config(), model->NumStages(), true);
  InferenceFactory float_factory;
  controller.SubmitSnapshot(model->CloneForInference(float_factory));
  Rng rng(14);
  model->SetTraining(false);
  Batch batch;
  batch.input = Tensor::Randn({4, 3, 8, 8}, rng);
  model->ForwardFrom(0, batch.input);
  constexpr int64_t kEvals = 8;
  for (int64_t iter = 1; iter <= kEvals; ++iter) {
    EvalRequest req;
    req.batch = batch;
    req.train_act = model->StageOutput(0);
    req.stage = 0;
    req.lr = 0.1F;
    req.iter = iter;
    controller.SubmitEval(std::move(req));
  }
  std::stringstream blob;
  controller.SaveState(blob);

  EgeriaController restored(Config(), model->NumStages(), true);
  ASSERT_TRUE(restored.RestoreState(
      blob, [&] { return model->CloneForInference(float_factory); }));
  EXPECT_TRUE(restored.HasReference());
  EXPECT_EQ(restored.EvalsDone(), kEvals);
  const std::vector<PlasticityRecord> saved = controller.PlasticityHistory();
  const std::vector<PlasticityRecord> loaded = restored.PlasticityHistory();
  ASSERT_EQ(loaded.size(), saved.size());
  for (size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(loaded[i].iter, saved[i].iter);
    EXPECT_EQ(loaded[i].raw, saved[i].raw);
  }
}

}  // namespace
}  // namespace egeria
