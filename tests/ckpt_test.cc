// Checkpoint/restore subsystem: hardened serialization (versioned formats,
// per-tensor checksums, corruption rejection), state-dict round trips over
// every model in src/models/, the manifest commit/retention protocol,
// optimizer-state round trips (incl. the elastic momentum slice),
// freezing-policy state round trips, and the Trainer-level bitwise-resume
// contract.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/distributed/reduction_contract.h"

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/state_dict.h"
#include "src/core/module_partitioner.h"
#include "src/core/trainer.h"
#include "src/data/synthetic_image.h"
#include "src/models/bert.h"
#include "src/models/deeplab.h"
#include "src/models/mobilenetv2.h"
#include "src/models/resnet.h"
#include "src/models/transformer.h"
#include "src/optim/lr_scheduler.h"
#include "src/optim/sharded_optimizer.h"
#include "src/tensor/serialize.h"

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

uint64_t HashTensor(const Tensor& t) {
  return Fnv1a64(t.Data(), static_cast<size_t>(t.NumEl()) * sizeof(float));
}

// ---------------------------------------------------------------- serialization

TEST(Serialize, TensorRoundTripV2PreservesBits) {
  Rng rng(1);
  Tensor t = Tensor::Randn({3, 5, 7}, rng);
  std::stringstream ss;
  WriteTensor(ss, t);
  Tensor back = ReadTensor(ss);
  ASSERT_TRUE(back.Defined());
  ASSERT_EQ(back.Shape(), t.Shape());
  EXPECT_EQ(0, std::memcmp(back.Data(), t.Data(),
                           static_cast<size_t>(t.NumEl()) * sizeof(float)));
}

TEST(Serialize, RejectsCorruptTensors) {
  Rng rng(3);
  Tensor t = Tensor::Randn({4, 4}, rng);
  std::stringstream good;
  WriteTensor(good, t);
  const std::string bytes = good.str();

  {  // Bad magic.
    std::string b = bytes;
    b[0] = 'X';
    std::stringstream ss(b);
    EXPECT_FALSE(ReadTensor(ss).Defined());
  }
  {  // Absurd ndim.
    std::string b = bytes;
    b[8] = 99;  // ndim field (after magic + version).
    std::stringstream ss(b);
    EXPECT_FALSE(ReadTensor(ss).Defined());
  }
  {  // Truncated payload.
    std::stringstream ss(bytes.substr(0, bytes.size() - 7));
    EXPECT_FALSE(ReadTensor(ss).Defined());
  }
  {  // Flipped data bit -> checksum mismatch.
    std::string b = bytes;
    b[b.size() - 3] ^= 0x40;
    std::stringstream ss(b);
    EXPECT_FALSE(ReadTensor(ss).Defined());
  }
  {  // Empty stream.
    std::stringstream ss;
    EXPECT_FALSE(ReadTensor(ss).Defined());
  }
}

TEST(Serialize, CheckpointMapRoundTripAndCorruptionRejection) {
  TempDir dir("ser");
  Rng rng(4);
  Checkpoint ckpt;
  ckpt["a"] = Tensor::Randn({3}, rng);
  ckpt["b.w"] = Tensor::Randn({2, 2}, rng);
  const std::string path = dir.path + "/c.state";
  ASSERT_TRUE(SaveCheckpoint(path, ckpt));

  Checkpoint back;
  ASSERT_TRUE(LoadCheckpoint(path, back));
  ASSERT_EQ(back.size(), 2U);
  EXPECT_EQ(HashTensor(back["a"]), HashTensor(ckpt["a"]));
  EXPECT_EQ(HashTensor(back["b.w"]), HashTensor(ckpt["b.w"]));

  // Truncate the file: load must fail and leave the map empty.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream buf;
    buf << is.rdbuf();
    bytes = buf.str();
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(LoadCheckpoint(path, back));
  EXPECT_TRUE(back.empty());
}

// ---------------------------------------------------------------- state dicts

// Builds each model twice with different seeds, saves A, loads into B, and
// demands bitwise-equal inference outputs — proving the state dict covers
// every tensor the forward depends on (weights AND normalization statistics).
TEST(StateDict, RoundTripReproducesForwardBitwiseForEveryModel) {
  struct Case {
    std::string name;
    std::function<std::unique_ptr<ChainModel>(uint64_t)> make;
    std::function<Batch(Rng&)> make_batch;
  };
  std::vector<Case> cases;

  cases.push_back({"resnet",
                   [](uint64_t seed) -> std::unique_ptr<ChainModel> {
                     Rng rng(seed);
                     CifarResNetConfig cfg;
                     cfg.blocks_per_stage = 1;
                     cfg.base_width = 4;
                     cfg.num_classes = 4;
                     return PartitionIntoChain("r", BuildCifarResNetBlocks(cfg, rng),
                                               PartitionConfig{.target_modules = 3});
                   },
                   [](Rng& rng) {
                     Batch b;
                     b.input = Tensor::Randn({2, 3, 12, 12}, rng);
                     return b;
                   }});
  cases.push_back({"mobilenetv2",
                   [](uint64_t seed) -> std::unique_ptr<ChainModel> {
                     Rng rng(seed);
                     MobileNetV2Config cfg;
                     cfg.channel_divisor = 16;
                     cfg.num_classes = 4;
                     return PartitionIntoChain("m", BuildMobileNetV2Blocks(cfg, rng),
                                               PartitionConfig{.target_modules = 4});
                   },
                   [](Rng& rng) {
                     Batch b;
                     b.input = Tensor::Randn({2, 3, 16, 16}, rng);
                     return b;
                   }});
  cases.push_back({"deeplab",
                   [](uint64_t seed) -> std::unique_ptr<ChainModel> {
                     Rng rng(seed);
                     DeepLabConfig cfg;
                     cfg.backbone_blocks_per_stage = 1;
                     cfg.base_width = 4;
                     cfg.num_classes = 3;
                     cfg.output_h = 12;
                     cfg.output_w = 12;
                     return PartitionIntoChain("d", BuildDeepLabBlocks(cfg, rng),
                                               PartitionConfig{.target_modules = 4});
                   },
                   [](Rng& rng) {
                     Batch b;
                     b.input = Tensor::Randn({2, 3, 12, 12}, rng);
                     return b;
                   }});
  cases.push_back({"bert",
                   [](uint64_t seed) -> std::unique_ptr<ChainModel> {
                     Rng rng(seed);
                     BertConfig cfg;
                     cfg.vocab = 16;
                     cfg.dim = 8;
                     cfg.heads = 2;
                     cfg.ffn_dim = 16;
                     cfg.num_layers = 2;
                     cfg.max_len = 12;
                     return PartitionIntoChain("b", BuildBertBlocks(cfg, rng),
                                               PartitionConfig{.target_modules = 3});
                   },
                   [](Rng& rng) {
                     Batch b;
                     b.input = Tensor({2, 10});
                     for (int64_t i = 0; i < 20; ++i) {
                       b.input.Data()[i] = static_cast<float>(3 + rng.NextBelow(10));
                     }
                     return b;
                   }});
  cases.push_back({"transformer",
                   [](uint64_t seed) -> std::unique_ptr<ChainModel> {
                     Rng rng(seed);
                     TransformerConfig cfg;
                     cfg.vocab = 16;
                     cfg.dim = 8;
                     cfg.heads = 2;
                     cfg.ffn_dim = 16;
                     cfg.num_encoder_layers = 2;
                     cfg.num_decoder_layers = 2;
                     cfg.max_len = 8;
                     return std::make_unique<TransformerChainModel>("t", cfg, rng);
                   },
                   [](Rng& rng) {
                     Batch b;
                     b.input = Tensor({2, 6});
                     b.target_input = Tensor({2, 6});
                     for (int64_t i = 0; i < 12; ++i) {
                       b.input.Data()[i] = static_cast<float>(3 + rng.NextBelow(12));
                       b.target_input.Data()[i] =
                           static_cast<float>(3 + rng.NextBelow(12));
                     }
                     return b;
                   }});

  TempDir dir("sd");
  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<ChainModel> a = c.make(3);
    std::unique_ptr<ChainModel> b = c.make(11);  // Different init on purpose.
    Rng batch_rng(41);
    Batch batch = c.make_batch(batch_rng);
    a->SetTraining(false);
    b->SetTraining(false);
    a->SetBatch(batch);
    const Tensor ref = a->ForwardFrom(0, batch.input);

    ASSERT_NE(HashModelState(*a), HashModelState(*b));
    const std::string path = dir.path + "/" + c.name + ".state";
    ASSERT_TRUE(SaveModelState(path, *a));
    ASSERT_TRUE(LoadModelStateFile(path, *b));
    EXPECT_EQ(HashModelState(*a), HashModelState(*b));

    b->SetBatch(batch);
    const Tensor out = b->ForwardFrom(0, batch.input);
    ASSERT_TRUE(out.SameShape(ref));
    EXPECT_EQ(0, std::memcmp(out.Data(), ref.Data(),
                             static_cast<size_t>(ref.NumEl()) * sizeof(float)))
        << c.name << ": forward diverged after state-dict round trip";
  }
}

TEST(StateDict, CoversBatchNormRunningStatistics) {
  // Train-mode forwards move BN running stats; a state dict saved afterwards
  // must carry them (a params-only save would not).
  auto make = [](uint64_t seed) {
    Rng rng(seed);
    CifarResNetConfig cfg;
    cfg.blocks_per_stage = 1;
    cfg.base_width = 4;
    cfg.num_classes = 4;
    return PartitionIntoChain("r", BuildCifarResNetBlocks(cfg, rng),
                              PartitionConfig{.target_modules = 3});
  };
  auto a = make(3);
  const uint64_t before = HashModelState(*a);
  Rng rng(5);
  a->SetTraining(true);
  a->ForwardFrom(0, Tensor::Randn({4, 3, 12, 12}, rng));
  EXPECT_NE(HashModelState(*a), before) << "BN stats not part of the state dict";

  auto b = make(3);  // Same seed: params equal, stats differ.
  TempDir dir("bn");
  ASSERT_TRUE(SaveModelState(dir.path + "/m.state", *a));
  ASSERT_TRUE(LoadModelStateFile(dir.path + "/m.state", *b));
  EXPECT_EQ(HashModelState(*a), HashModelState(*b));
}

TEST(StateDict, LoadRejectsMismatchedArchitecture) {
  auto make = [](int stages, int64_t width) {
    Rng rng(3);
    CifarResNetConfig cfg;
    cfg.blocks_per_stage = 1;
    cfg.base_width = width;
    cfg.num_classes = 4;
    return PartitionIntoChain("r", BuildCifarResNetBlocks(cfg, rng),
                              PartitionConfig{.target_modules = stages});
  };
  auto a = make(3, 4);
  auto wider = make(3, 8);
  TempDir dir("mm");
  ASSERT_TRUE(SaveModelState(dir.path + "/m.state", *a));
  EXPECT_FALSE(LoadModelStateFile(dir.path + "/m.state", *wider));
}

// ----------------------------------------------------------- manifest protocol

TEST(Manifest, CommitReadVerifyRoundTrip) {
  TempDir dir("mf");
  CkptManifest m;
  m.iter = 42;
  m.world = 3;
  m.frontier = 1;
  m.dir = CheckpointStepDir(dir.path, 42);
  ASSERT_TRUE(EnsureDir(m.dir));
  {
    std::ofstream os(m.dir + "/model.state", std::ios::binary);
    os << "payload-bytes";
  }
  ASSERT_TRUE(AddManifestFile(m, "model.state"));
  ASSERT_TRUE(CommitManifest(m));

  const auto back = ReadManifest(m.dir);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->iter, 42);
  EXPECT_EQ(back->world, 3);
  EXPECT_EQ(back->frontier, 1);
  ASSERT_EQ(back->files.size(), 1U);
  std::string error;
  EXPECT_TRUE(VerifyCheckpointFiles(*back, &error)) << error;

  // Tamper with the payload: verification must fail.
  {
    std::ofstream os(m.dir + "/model.state", std::ios::binary);
    os << "payload-bytez";
  }
  EXPECT_FALSE(VerifyCheckpointFiles(*back, &error));
}

TEST(Manifest, LatestSkipsIncompleteAndCorruptSteps) {
  TempDir dir("latest");
  auto write_step = [&](int64_t iter, bool commit) {
    CkptManifest m;
    m.iter = iter;
    m.dir = CheckpointStepDir(dir.path, iter);
    EXPECT_TRUE(EnsureDir(m.dir));
    {
      std::ofstream os(m.dir + "/model.state", std::ios::binary);
      os << "payload" << iter;
    }
    EXPECT_TRUE(AddManifestFile(m, "model.state"));
    if (commit) {
      EXPECT_TRUE(CommitManifest(m));
    }
    return m;
  };
  write_step(10, /*commit=*/true);
  write_step(20, /*commit=*/true);
  write_step(30, /*commit=*/false);  // Crashed mid-write: no manifest.

  auto latest = FindLatestCheckpoint(dir.path);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iter, 20);

  // Corrupt step 20's payload: discovery must fall back to step 10.
  {
    std::ofstream os(CheckpointStepDir(dir.path, 20) + "/model.state",
                     std::ios::binary);
    os << "tampered";
  }
  latest = FindLatestCheckpoint(dir.path);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iter, 10);
}

TEST(Manifest, RetentionKeepsLastNAndSweepsDebris) {
  TempDir dir("retain");
  auto write_step = [&](int64_t iter, bool commit) {
    CkptManifest m;
    m.iter = iter;
    m.dir = CheckpointStepDir(dir.path, iter);
    EXPECT_TRUE(EnsureDir(m.dir));
    {
      std::ofstream os(m.dir + "/model.state", std::ios::binary);
      os << "p" << iter;
    }
    EXPECT_TRUE(AddManifestFile(m, "model.state"));
    if (commit) {
      EXPECT_TRUE(CommitManifest(m));
    }
  };
  write_step(5, true);
  write_step(7, false);  // Old debris.
  write_step(10, true);
  write_step(15, true);
  write_step(20, true);
  write_step(25, false);  // Possibly a write in progress: must survive.

  ApplyRetention(dir.path, /*keep_last=*/2);
  EXPECT_FALSE(fs::exists(CheckpointStepDir(dir.path, 5)));
  EXPECT_FALSE(fs::exists(CheckpointStepDir(dir.path, 7)));
  EXPECT_FALSE(fs::exists(CheckpointStepDir(dir.path, 10)));
  EXPECT_TRUE(fs::exists(CheckpointStepDir(dir.path, 15)));
  EXPECT_TRUE(fs::exists(CheckpointStepDir(dir.path, 20)));
  EXPECT_TRUE(fs::exists(CheckpointStepDir(dir.path, 25)));
}

// ------------------------------------------------------------- optimizer state

TEST(OptimizerState, SgdAndAdamRoundTripBitwise) {
  auto make = [] {
    Rng rng(3);
    CifarResNetConfig cfg;
    cfg.blocks_per_stage = 1;
    cfg.base_width = 4;
    cfg.num_classes = 4;
    return PartitionIntoChain("r", BuildCifarResNetBlocks(cfg, rng),
                              PartitionConfig{.target_modules = 3});
  };
  for (const bool adam : {false, true}) {
    SCOPED_TRACE(adam ? "adam" : "sgd");
    auto model = make();
    auto model2 = make();
    std::unique_ptr<Optimizer> opt;
    std::unique_ptr<Optimizer> opt2;
    if (adam) {
      opt = std::make_unique<Adam>();
      opt2 = std::make_unique<Adam>();
    } else {
      opt = std::make_unique<Sgd>(0.9F, 1e-4F);
      opt2 = std::make_unique<Sgd>(0.9F, 1e-4F);
    }
    // Accumulate some state with synthetic gradients.
    Rng rng(9);
    const std::vector<Parameter*> params = model->ParamsFrom(0);
    for (int step = 0; step < 3; ++step) {
      for (Parameter* p : params) {
        p->grad = Tensor::Randn(p->value.Shape(), rng, 0.01F);
      }
      opt->Step(params, 0.05F);
    }

    std::vector<Parameter*> p1;
    std::vector<std::string> names;
    auto named = NamedParams(*model);
    for (auto& [name, p] : named) {
      names.push_back(name);
      p1.push_back(p);
    }
    Checkpoint state;
    opt->ExportState(p1, names, state);
    EXPECT_FALSE(state.empty());

    // Import into a fresh optimizer over a DIFFERENT (same-arch) model, then
    // one more identical step on both: updates must match bitwise.
    model2->CopyStateFrom(*model);
    std::vector<Parameter*> p2;
    auto named2 = NamedParams(*model2);
    std::vector<std::string> names2;
    for (auto& [name, p] : named2) {
      names2.push_back(name);
      p2.push_back(p);
    }
    ASSERT_TRUE(opt2->ImportState(p2, names2, state));
    EXPECT_EQ(opt2->StateBytes(), opt->StateBytes());

    Rng grads(77);
    for (size_t i = 0; i < p1.size(); ++i) {
      Tensor g = Tensor::Randn(p1[i]->value.Shape(), grads, 0.01F);
      p1[i]->grad = g.Clone();
      p2[i]->grad = g.Clone();
    }
    opt->Step(p1, 0.05F);
    opt2->Step(p2, 0.05F);
    EXPECT_EQ(HashModelState(*model), HashModelState(*model2));
  }
}

TEST(OptimizerState, ElasticShardRefoldPreservesEveryElement) {
  // A checkpoint saves the momentum of the whole active space as one vector
  // (rank 0 gathers every rank's contract chunk), and each resuming rank
  // slices its own chunk out of it at the new world size. Over a
  // non-divisible active space, the chunks of a world-4 run must put the
  // vector back together, and at worlds 3, 5, 4 and 1 every element must
  // land, bit-identical, in exactly the rank that owns it.
  const int64_t frozen = 11;
  const int64_t active = 103;
  std::vector<float> flat(static_cast<size_t>(active));
  for (size_t i = 0; i < flat.size(); ++i) {
    flat[i] = static_cast<float>(i) * 1.25F + 0.5F;
  }
  std::vector<float> gathered;
  for (int rank = 0; rank < 4; ++rank) {
    ShardedSgd opt(0.9F, 0.0F);
    opt.Restore(rank, 4, frozen, flat);
    gathered.insert(gathered.end(), opt.velocity().begin(), opt.velocity().end());
  }
  ASSERT_EQ(gathered, flat);

  for (const int new_world : {3, 5, 4, 1}) {
    SCOPED_TRACE("new_world=" + std::to_string(new_world));
    for (int rank = 0; rank < new_world; ++rank) {
      ShardedSgd opt(0.9F, 0.0F);
      const auto [begin, end] = opt.Restore(rank, new_world, frozen, gathered);
      const Span expect = ChunkSpan(active, new_world, rank);
      EXPECT_EQ(begin, expect.begin);
      EXPECT_EQ(end, expect.end);
      EXPECT_EQ(opt.StateBytes(), (end - begin) * static_cast<int64_t>(sizeof(float)));
      const std::vector<float>& velocity = opt.velocity();
      ASSERT_EQ(static_cast<int64_t>(velocity.size()), end - begin);
      for (int64_t i = begin; i < end; ++i) {
        ASSERT_EQ(velocity[static_cast<size_t>(i - begin)], flat[static_cast<size_t>(i)])
            << "element " << i << " corrupted by the slice";
      }
    }
  }
}

// -------------------------------------------------------- freezing policy state

TEST(PolicyState, SaveLoadReproducesDecisionsBitwise) {
  EgeriaConfig cfg;
  cfg.window_w = 3;
  cfg.tolerance_coef = 0.4;
  FreezingPolicy a(cfg, /*num_stages=*/4, /*lr_is_annealing=*/false);

  // Feed a plasticity series that flattens out; stop halfway.
  auto reading = [](int i) { return 1.0 / (1.0 + 0.5 * i) + 0.001 * (i % 2); };
  int i = 0;
  for (; i < 7; ++i) {
    a.OnPlasticity(a.frontier(), reading(i), 0.05F, i + 1);
  }
  std::stringstream blob;
  a.SaveState(blob);

  FreezingPolicy b(cfg, 4, false);
  ASSERT_TRUE(b.LoadState(blob));
  EXPECT_EQ(b.frontier(), a.frontier());
  EXPECT_EQ(b.window(), a.window());
  EXPECT_EQ(b.ToleranceOf(0), a.ToleranceOf(0));

  // Continue both with the same readings: identical decisions at identical
  // iterations, including the eventual freeze.
  bool froze = false;
  for (; i < 60; ++i) {
    const auto da = a.OnPlasticity(a.frontier(), reading(i), 0.05F, i + 1);
    const auto db = b.OnPlasticity(b.frontier(), reading(i), 0.05F, i + 1);
    ASSERT_EQ(da.has_value(), db.has_value()) << "diverged at reading " << i;
    if (da) {
      froze = true;
      EXPECT_EQ(da->stage, db->stage);
      EXPECT_EQ(da->iter, db->iter);
    }
    ASSERT_EQ(a.frontier(), b.frontier());
  }
  EXPECT_TRUE(froze) << "series never froze; test is hollow";
  EXPECT_FALSE(a.LoadState(blob))
      << "re-loading a drained stream should fail, not fabricate state";
}

// --------------------------------------------------------- trainer-level resume

struct TrainerWorkload {
  std::unique_ptr<StageChainModel> model;
  std::unique_ptr<SyntheticImageDataset> train;
  std::unique_ptr<SyntheticImageDataset> val;
};

TrainerWorkload MakeTrainerWorkload(uint64_t seed = 5) {
  TrainerWorkload w;
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
  w.train = std::make_unique<SyntheticImageDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 64;
  w.val = std::make_unique<SyntheticImageDataset>(vcfg);
  return w;
}

TrainConfig FreezingTrainConfig() {
  TrainConfig cfg;
  cfg.epochs = 8;
  cfg.batch_size = 16;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.val_batches = 4;
  cfg.enable_egeria = true;
  cfg.egeria.eval_interval_n = 8;
  cfg.egeria.window_w = 3;
  cfg.egeria.enable_cache = true;
  cfg.egeria.max_bootstrap_iters = 16;
  cfg.egeria.ref_update_evals = 2;
  return cfg;
}

TEST(TrainerResume, CheckpointedRunResumesBitwiseIdentical) {
  // Ground truth: the uninterrupted freezing run.
  TrainerWorkload wa = MakeTrainerWorkload();
  TrainConfig base = FreezingTrainConfig();
  Trainer uninterrupted(*wa.model, *wa.train, *wa.val, base);
  TrainResult ra = uninterrupted.Run();
  ASSERT_GT(ra.final_frontier, 0) << "workload no longer freezes; test is hollow";
  const uint64_t ref_hash = HashModelState(*wa.model);

  // Crash drill: checkpoint every 16 iterations, die at 50, restart.
  TempDir dir("resume");
  TrainerWorkload wb = MakeTrainerWorkload();
  TrainConfig cfg = FreezingTrainConfig();
  cfg.ckpt.dir = dir.path;
  cfg.ckpt.interval_iters = 16;
  cfg.ckpt.keep_last = 2;
  {
    TrainConfig crash = cfg;
    crash.stop_after_iters = 50;
    Trainer first(*wb.model, *wb.train, *wb.val, crash);
    TrainResult r1 = first.Run();
    EXPECT_TRUE(r1.stopped_early);
    EXPECT_EQ(r1.resumed_from_iter, -1);
  }
  // "Restart the process": a fresh model + trainer against the same directory.
  TrainerWorkload wc = MakeTrainerWorkload();
  Trainer second(*wc.model, *wc.train, *wc.val, cfg);
  TrainResult r2 = second.Run();
  EXPECT_EQ(r2.resumed_from_iter, 50);
  EXPECT_FALSE(r2.stopped_early);
  EXPECT_EQ(r2.final_frontier, ra.final_frontier);
  EXPECT_EQ(HashModelState(*wc.model), ref_hash)
      << "resumed weights diverged from the uninterrupted run";
}

TEST(TrainerResume, AdamStateSurvivesResumeBitwise) {
  // Same drill without Egeria but with Adam: moments + step counters must
  // round-trip for the continuation to match.
  auto run = [](const std::string& ckpt_dir,
                int64_t stop_after) -> std::pair<uint64_t, int64_t> {
    TrainerWorkload w = MakeTrainerWorkload(9);
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch_size = 16;
    cfg.task.kind = TaskKind::kClassification;
    cfg.optimizer = TrainConfig::Optim::kAdam;
    cfg.lr_schedule = std::make_shared<ConstantLr>(0.002F);
    cfg.val_batches = 2;
    if (!ckpt_dir.empty()) {
      cfg.ckpt.dir = ckpt_dir;
      cfg.ckpt.interval_iters = 10;
    }
    cfg.stop_after_iters = stop_after;
    Trainer t(*w.model, *w.train, *w.val, cfg);
    TrainResult r = t.Run();
    return {HashModelState(*w.model), r.resumed_from_iter};
  };
  const auto [ref_hash, ref_resumed] = run("", -1);
  EXPECT_EQ(ref_resumed, -1);
  TempDir dir("adam");
  run(dir.path, 25);  // a new, empty directory: nothing to resume
  const auto [resumed_hash, resumed_from] = run(dir.path, -1);
  EXPECT_EQ(resumed_from, 25);
  EXPECT_EQ(resumed_hash, ref_hash);
}

}  // namespace
}  // namespace egeria
