// The frozen-feature store (paper S4.3, taken to its conclusion): key
// invalidation (stage / generation), the prefix-determinism gate, and the
// Trainer-level contracts — cached freezing runs bitwise identical to uncached
// ones (ResNet and Transformer geometries, and every rank of a two-rank ring
// world), the store declining under epoch-varying augmentation, and a cached
// run that crashes and resumes from its checkpoint matching the uninterrupted
// uncached run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "src/baselines/freeze_baselines.h"
#include "src/ckpt/state_dict.h"
#include "src/core/activation_cache.h"
#include "src/core/module_partitioner.h"
#include "src/core/trainer.h"
#include "src/data/synthetic_image.h"
#include "src/data/synthetic_text.h"
#include "src/distributed/dist_trainer.h"
#include "src/distributed/dist_workload.h"
#include "src/models/resnet.h"
#include "src/models/transformer.h"
#include "src/nn/dropout.h"
#include "src/optim/lr_scheduler.h"
#include "tests/tcp_world.h"

namespace egeria {
namespace {

namespace fs = std::filesystem;

std::string MakeTempDir(const std::string& label) {
  std::string tmpl = (fs::temp_directory_path() / ("egeria-" + label + "-XXXXXX")).string();
  EXPECT_NE(nullptr, mkdtemp(tmpl.data()));
  return tmpl;
}

struct TempDir {
  explicit TempDir(const std::string& label) : path(MakeTempDir(label)) {}
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// [n, 4] activations whose rows are recognizable per id: row i = id*10 + col.
Tensor ActsFor(const std::vector<int64_t>& ids) {
  Tensor t({static_cast<int64_t>(ids.size()), 4});
  for (size_t i = 0; i < ids.size(); ++i) {
    for (int64_t c = 0; c < 4; ++c) {
      t.Data()[static_cast<int64_t>(i) * 4 + c] =
          static_cast<float>(ids[i] * 10 + c);
    }
  }
  return t;
}

void ExpectRowsEqual(const Tensor& got, const std::vector<int64_t>& ids) {
  ASSERT_TRUE(got.Defined());
  ASSERT_EQ(got.Size(0), static_cast<int64_t>(ids.size()));
  Tensor want = ActsFor(ids);
  for (int64_t i = 0; i < got.NumEl(); ++i) {
    ASSERT_EQ(got.Data()[i], want.Data()[i]) << "element " << i;
  }
}

// ---------------------------------------------------------------------- keying

TEST(FeatureStore, KeyChangeInvalidatesAndIdenticalKeyIsStable) {
  ActivationCache cache(/*num_samples=*/8, /*budget_bytes=*/1 << 20);
  const std::vector<int64_t> ids = {1, 2, 3};

  cache.SetKey(/*stage=*/2, /*generation=*/7);
  cache.StoreBatch(ids, ActsFor(ids));
  ASSERT_TRUE(cache.HasAll(ids));

  // Re-setting the identical key is the per-iteration fast path: nothing lost.
  cache.SetKey(2, 7);
  EXPECT_TRUE(cache.HasAll(ids));
  ExpectRowsEqual(cache.FetchBatch(ids), ids);

  // Generation moved (frontier weights or augmentation changed): the table
  // is freed.
  cache.SetKey(2, 8);
  EXPECT_FALSE(cache.HasAll(ids));
  EXPECT_EQ(cache.Stats().table_bytes, 0);
  EXPECT_EQ(cache.Stats().bytes_written, 0);

  cache.StoreBatch(ids, ActsFor(ids));
  ASSERT_TRUE(cache.HasAll(ids));
  // Frontier advanced to a different boundary stage.
  cache.SetKey(3, 8);
  EXPECT_FALSE(cache.HasAll(ids));
}

// -------------------------------------------------- prefix-determinism gate

TEST(FeatureStore, PrefixForwardDeterministicTracksDropoutMode) {
  std::vector<std::unique_ptr<Module>> stages;
  stages.push_back(std::make_unique<Dropout>("d0", 0.5F));
  stages.push_back(std::make_unique<Dropout>("d1", 0.0F));
  StageChainModel model("drop", std::move(stages));

  model.SetTraining(true);
  EXPECT_TRUE(model.PrefixForwardDeterministic(0));  // empty prefix
  EXPECT_FALSE(model.PrefixForwardDeterministic(1)) << "train-mode dropout served";
  EXPECT_FALSE(model.PrefixForwardDeterministic(2));

  // Freezing the stochastic stage turns its dropout into a no-op: a frontier
  // frozen through FreezeUpTo is always servable. p=0 was never stochastic.
  model.SetStageFrozen(0, true);
  EXPECT_TRUE(model.PrefixForwardDeterministic(1));
  EXPECT_TRUE(model.PrefixForwardDeterministic(2));

  model.SetStageFrozen(0, false);
  model.SetTraining(false);
  EXPECT_TRUE(model.PrefixForwardDeterministic(2));
}

TEST(FeatureStore, PrefixDeterminismRecursesIntoTransformerLayers) {
  TransformerConfig cfg;
  cfg.vocab = 16;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.ffn_dim = 16;
  cfg.num_encoder_layers = 2;
  cfg.num_decoder_layers = 2;
  cfg.max_len = 8;
  cfg.dropout = 0.1F;
  Rng rng(41);
  TransformerChainModel model("t", cfg, rng);

  // The dropout sits inside the encoder layers' submodules, not at stage level:
  // the gate must find it recursively.
  model.SetTraining(true);
  EXPECT_FALSE(model.PrefixForwardDeterministic(3));
  for (int s = 0; s < 3; ++s) {
    model.SetStageFrozen(s, true);
  }
  EXPECT_TRUE(model.PrefixForwardDeterministic(3));
}

// ------------------------------------------------------- trainer-level pins

struct ResNetWorkload {
  std::unique_ptr<StageChainModel> model;
  std::unique_ptr<SyntheticImageDataset> train;
  std::unique_ptr<SyntheticImageDataset> val;
};

ResNetWorkload MakeResNetWorkload(uint64_t seed = 7, bool epoch_varying = false) {
  ResNetWorkload w;
  Rng rng(seed);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 1;
  mcfg.base_width = 8;
  mcfg.num_classes = 4;
  w.model = PartitionIntoChain("resnet", BuildCifarResNetBlocks(mcfg, rng),
                               PartitionConfig{.target_modules = 4});
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 256;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.noise_std = 0.5F;
  dcfg.epoch_varying_augment = epoch_varying;
  w.train = std::make_unique<SyntheticImageDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.epoch_varying_augment = false;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 64;
  w.val = std::make_unique<SyntheticImageDataset>(vcfg);
  return w;
}

// Deterministic static-freeze configuration: no plasticity evals, freeze
// point supplied by StaticFreezeHook.
TrainConfig StaticFreezeConfig(int epochs) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 16;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.val_batches = 4;
  cfg.enable_egeria = true;
  cfg.egeria.eval_interval_n = 1 << 20;
  return cfg;
}

TEST(FeatureStoreTrainer, ResNetCachedRunBitwiseIdenticalAndSkipsWholeEpochs) {
  auto run = [](bool enable_cache) {
    ResNetWorkload w = MakeResNetWorkload();
    TrainConfig cfg = StaticFreezeConfig(/*epochs=*/5);
    cfg.egeria.enable_cache = enable_cache;
    StaticFreezeHook hook(/*epoch=*/1, /*stage=*/1);
    Trainer trainer(*w.model, *w.train, *w.val, cfg);
    trainer.SetFreezeHook(&hook);
    TrainResult r = trainer.Run();
    return std::make_pair(r, HashModelState(*w.model));
  };
  auto [r_on, hash_on] = run(true);
  auto [r_off, hash_off] = run(false);

  // The headline correctness bar: augmentation is epoch-deterministic, so the
  // cached run is bitwise identical to the uncached one.
  EXPECT_EQ(hash_on, hash_off) << "feature store changed training numerics";

  // Freeze lands at iter 16 (end of epoch 0). Epoch 1 populates the store;
  // every post-populate epoch is served start to finish — zero frozen-prefix
  // forwards. These are exact counts, not timings.
  const int64_t ipe = 256 / 16;
  ASSERT_EQ(static_cast<int64_t>(r_on.epochs.size()), 5);
  EXPECT_EQ(r_on.epochs[1].fp_skips, 0);
  EXPECT_GT(r_on.epochs[1].frozen_fp_seconds, 0.0);
  for (int e = 2; e < 5; ++e) {
    EXPECT_EQ(r_on.epochs[e].fp_skips, ipe) << "epoch " << e;
    EXPECT_EQ(r_on.epochs[e].frozen_fp_seconds, 0.0) << "epoch " << e;
  }
  EXPECT_EQ(r_on.fp_skip_count, 3 * ipe);
  EXPECT_EQ(r_on.cache_declined_iters, 0);
  EXPECT_EQ(r_on.cache.stores, 256);

  // The store-off run recomputes the frozen prefix in every post-freeze epoch
  // (and measures it — that timing is the fig09 saved_s baseline).
  EXPECT_EQ(r_off.fp_skip_count, 0);
  ASSERT_EQ(static_cast<int64_t>(r_off.epochs.size()), 5);
  for (int e = 1; e < 5; ++e) {
    EXPECT_EQ(r_off.epochs[e].fp_skips, 0) << "epoch " << e;
    EXPECT_GT(r_off.epochs[e].frozen_fp_seconds, 0.0) << "epoch " << e;
  }
}

// Every rank of a world keeps its own store (its own directory, its own
// batches: b * world + rank), so a two-rank ring world trains the same bits
// with the store on as off — on every replica — while rank 0 skips forwards.
TEST(FeatureStoreTrainer, TwoRankRingWorldCachedRunBitwiseIdentical) {
  constexpr int kWorld = 2;
  auto run = [](bool enable_cache) {
    DistWorkload w = MakeDistWorkload("tiny");
    TrainConfig cfg = StaticFreezeConfig(/*epochs=*/10);
    cfg.batch_size = w.cfg.batch_size;
    cfg.egeria.enable_cache = enable_cache;
    std::vector<TrainResult> results(kWorld);
    std::vector<uint64_t> hashes(kWorld);
    RunTcpWorld(kWorld, [&](int r, Transport& transport) {
      std::unique_ptr<ChainModel> model = w.make_model();
      RingSync sync(transport, cfg.momentum, cfg.weight_decay);
      StaticFreezeHook hook(/*epoch=*/1, /*stage=*/0);
      Trainer trainer(*model, *w.train, *w.val, cfg, &sync);
      trainer.SetFreezeHook(&hook);
      results[static_cast<size_t>(r)] = trainer.Run();
      hashes[static_cast<size_t>(r)] = HashModelState(*model);
    });
    return std::make_pair(results, hashes);
  };
  const auto [on, hashes_on] = run(true);
  const auto [off, hashes_off] = run(false);
  for (int r = 0; r < kWorld; ++r) {
    ASSERT_TRUE(on[static_cast<size_t>(r)].status.ok());
    EXPECT_EQ(on[static_cast<size_t>(r)].final_frontier, 1);
    EXPECT_EQ(hashes_on[static_cast<size_t>(r)], hashes_off[static_cast<size_t>(r)])
        << "rank " << r << ": the feature store changed training numerics";
  }
  EXPECT_GT(on[0].fp_skip_count, 0) << "rank 0's store never served";
  EXPECT_EQ(off[0].fp_skip_count, 0);
}

TEST(FeatureStoreTrainer, TransformerCachedRunBitwiseIdentical) {
  auto run = [](bool enable_cache) {
    TransformerConfig mcfg;
    mcfg.vocab = 16;
    mcfg.dim = 8;
    mcfg.heads = 2;
    mcfg.ffn_dim = 16;
    mcfg.num_encoder_layers = 2;
    mcfg.num_decoder_layers = 2;
    mcfg.max_len = 8;
    Rng rng(43);
    TransformerChainModel model("t", mcfg, rng);

    SyntheticTranslationConfig dcfg;
    dcfg.vocab = 16;
    dcfg.seq_len = 8;
    dcfg.num_samples = 128;
    SyntheticTranslationDataset train(dcfg);
    auto vcfg = dcfg;
    vcfg.sample_salt = 1000000;
    vcfg.num_samples = 32;
    SyntheticTranslationDataset val(vcfg);

    TrainConfig cfg = StaticFreezeConfig(/*epochs=*/5);
    cfg.task.kind = TaskKind::kTranslation;
    cfg.optimizer = TrainConfig::Optim::kAdam;
    cfg.lr_schedule = std::make_shared<ConstantLr>(0.002F);
    cfg.val_batches = 2;
    cfg.egeria.enable_cache = enable_cache;
    // Frontier 2 (embed + enc0): within the encoder-memory skip bound, and the
    // boundary key must stay fp32 — this model rejects forward substitution.
    StaticFreezeHook hook(/*epoch=*/1, /*stage=*/1);
    Trainer trainer(model, train, val, cfg);
    trainer.SetFreezeHook(&hook);
    TrainResult r = trainer.Run();
    return std::make_pair(r, HashModelState(model));
  };
  auto [r_on, hash_on] = run(true);
  auto [r_off, hash_off] = run(false);

  EXPECT_EQ(hash_on, hash_off)
      << "feature store changed Transformer training numerics";
  const int64_t ipe = 128 / 16;
  EXPECT_EQ(r_on.fp_skip_count, 3 * ipe);  // Epochs 2-4 served end to end.
  EXPECT_EQ(r_off.fp_skip_count, 0);
}

TEST(FeatureStoreTrainer, EpochVaryingAugmentationDeclinesToServe) {
  ResNetWorkload w = MakeResNetWorkload(/*seed=*/7, /*epoch_varying=*/true);
  ASSERT_NE(w.train->AugmentationSignature(0), w.train->AugmentationSignature(1))
      << "dataset no longer varies augmentation by epoch; test is hollow";

  TrainConfig cfg = StaticFreezeConfig(/*epochs=*/4);
  cfg.egeria.enable_cache = true;
  StaticFreezeHook hook(/*epoch=*/1, /*stage=*/1);
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  trainer.SetFreezeHook(&hook);
  TrainResult r = trainer.Run();

  // The store is on but must refuse every iteration: a cached boundary from
  // epoch e would replay epoch e's augmentation into epoch e+1.
  EXPECT_EQ(r.fp_skip_count, 0);
  EXPECT_GT(r.cache_declined_iters, 0);
  EXPECT_EQ(r.cache.stores, 0);
}

TEST(FeatureStoreTrainer, CachedRunResumesBitwiseAndServesAgain) {
  // Ground truth: uninterrupted, uncached static-freeze run.
  const uint64_t kSeed = 19;
  uint64_t ref_hash = 0;
  {
    ResNetWorkload w = MakeResNetWorkload(kSeed);
    TrainConfig cfg = StaticFreezeConfig(/*epochs=*/6);
    cfg.egeria.enable_cache = false;
    StaticFreezeHook hook(/*epoch=*/1, /*stage=*/1);
    Trainer trainer(*w.model, *w.train, *w.val, cfg);
    trainer.SetFreezeHook(&hook);
    trainer.Run();
    ref_hash = HashModelState(*w.model);
  }

  // Crash drill: the cached run checkpoints every 8 iterations and dies.
  TempDir dir("fst-resume");
  TrainConfig cfg = StaticFreezeConfig(/*epochs=*/6);
  cfg.egeria.enable_cache = true;
  cfg.ckpt.dir = dir.path;
  cfg.ckpt.interval_iters = 8;
  cfg.ckpt.keep_last = 2;
  {
    ResNetWorkload w = MakeResNetWorkload(kSeed);
    TrainConfig crash = cfg;
    crash.stop_after_iters = 40;  // Mid-epoch-2, after the store populated.
    StaticFreezeHook hook(/*epoch=*/1, /*stage=*/1);
    Trainer first(*w.model, *w.train, *w.val, crash);
    first.SetFreezeHook(&hook);
    TrainResult r1 = first.Run();
    EXPECT_TRUE(r1.stopped_early);
    EXPECT_GT(r1.fp_skip_count, 0) << "store never served before the crash";
  }

  // "Restart the process": fresh model + trainer + hook against the same
  // checkpoint dir. The store starts empty, repopulates under the restored
  // prefix's generation and serves again.
  ResNetWorkload w = MakeResNetWorkload(kSeed);
  StaticFreezeHook hook(/*epoch=*/1, /*stage=*/1);
  Trainer second(*w.model, *w.train, *w.val, cfg);
  second.SetFreezeHook(&hook);
  TrainResult r2 = second.Run();
  EXPECT_EQ(r2.resumed_from_iter, 40);
  EXPECT_FALSE(r2.stopped_early);
  ASSERT_FALSE(r2.epochs.empty());
  EXPECT_EQ(r2.epochs.back().fp_skips, 256 / 16) << "the resumed store never served";
  EXPECT_EQ(HashModelState(*w.model), ref_hash)
      << "crash/resume with the feature store diverged from the "
         "uninterrupted uncached run";
}

}  // namespace
}  // namespace egeria
