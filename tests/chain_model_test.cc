// ChainModel semantics — the invariants Egeria's freezing machinery relies on:
//  - ForwardFrom(k, boundary_activation) reproduces the full forward exactly;
//  - BackwardTo(stop) leaves frozen-stage gradients untouched, and reports each
//    visited stage to the stage-backward observer once, deepest first;
//  - inference clones (float) match the training model in eval mode;
//  - the Transformer chain routes memory gradients correctly (checked numerically);
//  - partitioner invariants (balance, contiguity, protected head).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/module_partitioner.h"
#include "src/models/bert.h"
#include "src/models/deeplab.h"
#include "src/models/mobilenetv2.h"
#include "src/models/resnet.h"
#include "src/models/transformer.h"
#include "src/nn/loss.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

std::unique_ptr<StageChainModel> SmallResNet(int stages = 4) {
  Rng rng(21);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 2;
  mcfg.base_width = 4;
  return PartitionIntoChain("r", BuildCifarResNetBlocks(mcfg, rng),
                            PartitionConfig{.target_modules = stages});
}

TEST(StageChainModel, ForwardFromBoundaryMatchesFullForward) {
  auto model = SmallResNet();
  model->SetTraining(false);  // Deterministic (no BN batch-stats updates).
  Rng rng(22);
  Tensor x = Tensor::Randn({2, 3, 12, 12}, rng);
  Tensor full = model->ForwardFrom(0, x);
  for (int k = 1; k < model->NumStages(); ++k) {
    model->ForwardFrom(0, x);
    Tensor boundary = model->StageOutput(k - 1);
    Tensor resumed = model->ForwardFrom(k, boundary);
    ASSERT_TRUE(resumed.SameShape(full));
    for (int64_t i = 0; i < full.NumEl(); ++i) {
      ASSERT_EQ(resumed.Data()[i], full.Data()[i]) << "stage " << k;
    }
  }
}

TEST(StageChainModel, BackwardToStopsAtFrontier) {
  auto model = SmallResNet();
  Rng rng(23);
  Tensor x = Tensor::Randn({2, 3, 12, 12}, rng);
  Tensor out = model->ForwardFrom(0, x);
  Tensor grad = Tensor::Randn(out.Shape(), rng);

  model->ZeroGrad();
  model->BackwardTo(2, grad);
  // Frozen prefix (stages 0-1): zero grads. Active suffix: some non-zero grads.
  for (int s = 0; s < 2; ++s) {
    for (Parameter* p : model->StageParams(s)) {
      EXPECT_FLOAT_EQ(p->grad.AbsMax(), 0.0F) << p->name;
    }
  }
  double active_mass = 0.0;
  for (int s = 2; s < model->NumStages(); ++s) {
    for (Parameter* p : model->StageParams(s)) {
      active_mass += p->grad.AbsMax();
    }
  }
  EXPECT_GT(active_mass, 0.0);
}

// The stage-backward observer (per-stage backward timing hangs off it): every
// stage in [stop, NumStages) is reported exactly once, deepest first, and no
// stage below `stop` ever is.
TEST(StageChainModel, BackwardObserverReportsVisitedStagesDeepestFirst) {
  auto model = SmallResNet();
  const int n = model->NumStages();
  std::vector<int> seen;
  model->SetStageBackwardObserver([&seen](int stage) { seen.push_back(stage); });
  Rng rng(25);
  Tensor x = Tensor::Randn({2, 3, 12, 12}, rng);
  for (int stop = 0; stop <= n; ++stop) {
    Tensor out = model->ForwardFrom(0, x);
    Tensor grad = Tensor::Randn(out.Shape(), rng);
    model->ZeroGrad();
    seen.clear();
    model->BackwardTo(stop, grad);
    std::vector<int> expected;
    for (int i = n - 1; i >= stop; --i) {
      expected.push_back(i);
    }
    EXPECT_EQ(seen, expected) << "stop " << stop;
  }
  model->SetStageBackwardObserver(nullptr);
}

TEST(StageChainModel, PartialBackwardMatchesFullBackwardOnSuffix) {
  // Gradients of active stages must be identical whether or not the frozen prefix
  // participates in backprop.
  auto model_a = SmallResNet();
  auto model_b = SmallResNet();
  model_b->CopyStateFrom(*model_a);
  Rng rng(24);
  Tensor x = Tensor::Randn({2, 3, 12, 12}, rng);
  Tensor ga = Tensor::Randn({2, 10}, rng);

  model_a->ForwardFrom(0, x);
  model_a->ZeroGrad();
  model_a->BackwardTo(0, ga);  // Full backprop.

  model_b->ForwardFrom(0, x);
  model_b->ZeroGrad();
  model_b->BackwardTo(2, ga);  // Skip stages 0-1.

  for (int s = 2; s < model_a->NumStages(); ++s) {
    auto pa = model_a->StageParams(s);
    auto pb = model_b->StageParams(s);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      for (int64_t j = 0; j < pa[i]->grad.NumEl(); ++j) {
        ASSERT_NEAR(pa[i]->grad.Data()[j], pb[i]->grad.Data()[j], 1e-6F)
            << pa[i]->name;
      }
    }
  }
}

TEST(StageChainModel, FloatInferenceCloneMatchesEvalModel) {
  auto model = SmallResNet();
  // Train-ish perturbation so running stats differ from init.
  Rng rng(25);
  for (int i = 0; i < 3; ++i) {
    model->ForwardFrom(0, Tensor::Randn({4, 3, 12, 12}, rng));
  }
  model->SetTraining(false);
  InferenceFactory factory;
  auto clone = model->CloneForInference(factory);
  Tensor x = Tensor::Randn({2, 3, 12, 12}, rng);
  Tensor a = model->ForwardFrom(0, x);
  Tensor b = clone->ForwardFrom(0, x);
  for (int64_t i = 0; i < a.NumEl(); ++i) {
    ASSERT_NEAR(a.Data()[i], b.Data()[i], 1e-5F);
  }
}

TEST(StageChainModel, ForwardPrefixMatchesStageOutputs) {
  auto model = SmallResNet();
  model->SetTraining(false);
  Rng rng(26);
  Tensor x = Tensor::Randn({2, 3, 12, 12}, rng);
  model->ForwardFrom(0, x);
  Tensor want = model->StageOutput(1);
  Tensor got = model->ForwardPrefix(1, x);
  for (int64_t i = 0; i < want.NumEl(); ++i) {
    ASSERT_EQ(got.Data()[i], want.Data()[i]);
  }
}

TEST(Partitioner, BalancedContiguousGroups) {
  Rng rng(27);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 9;  // ResNet-56
  mcfg.base_width = 4;
  PartitionSummary summary;
  auto model = PartitionIntoChain("r56", BuildCifarResNetBlocks(mcfg, rng),
                                  PartitionConfig{.target_modules = 7}, &summary);
  EXPECT_EQ(model->NumStages(), static_cast<int>(summary.module_names.size()));
  EXPECT_GE(model->NumStages(), 5);
  EXPECT_LE(model->NumStages(), 9);
  // All blocks preserved.
  int blocks = 0;
  for (int c : summary.blocks_per_module) {
    blocks += c;
  }
  EXPECT_EQ(blocks, 2 + 27);  // stem + 27 residual blocks + head
  // Deep heavy modules are split finer than light front modules: no module should
  // carry more than ~2.5x the ideal share.
  int64_t total = 0;
  for (int64_t m : summary.module_params) {
    total += m;
  }
  for (size_t i = 0; i + 1 < summary.module_params.size(); ++i) {
    EXPECT_LT(summary.module_params[i],
              2.5 * static_cast<double>(total) / summary.module_params.size());
  }
}

TEST(Partitioner, PatternBoundaryRespected) {
  Rng rng(28);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 2;
  mcfg.base_width = 4;
  PartitionSummary summary;
  PartitionConfig pcfg;
  pcfg.target_modules = 3;
  pcfg.boundary_pattern = "layer3";  // Force a cut before layer3.0.
  PartitionIntoChain("r", BuildCifarResNetBlocks(mcfg, rng), pcfg, &summary);
  bool found = false;
  for (const auto& name : summary.module_names) {
    if (name.rfind("layer3.0", 0) == 0) {
      found = true;  // A module starts exactly at layer3.0.
    }
  }
  EXPECT_TRUE(found);
}

TEST(ModelZoo, AllModelsForwardAndBackward) {
  Rng rng(29);
  struct Case {
    std::unique_ptr<StageChainModel> model;
    Tensor input;
    int64_t out_classes;
  };
  std::vector<Case> cases;
  {
    MobileNetV2Config cfg;
    cfg.channel_divisor = 16;
    cfg.num_classes = 4;
    cases.push_back({PartitionIntoChain("mbv2", BuildMobileNetV2Blocks(cfg, rng),
                                        PartitionConfig{.target_modules = 5}),
                     Tensor::Randn({2, 3, 16, 16}, rng), 4});
  }
  {
    BottleneckResNetConfig cfg;
    cfg.stage_blocks = {1, 1, 1, 1};
    cfg.base_width = 4;
    cfg.num_classes = 4;
    cases.push_back({PartitionIntoChain("r50", BuildBottleneckResNetBlocks(cfg, rng),
                                        PartitionConfig{.target_modules = 4}),
                     Tensor::Randn({2, 3, 16, 16}, rng), 4});
  }
  for (auto& c : cases) {
    Tensor out = c.model->ForwardFrom(0, c.input);
    EXPECT_EQ(out.Size(0), 2);
    EXPECT_EQ(out.Size(1), c.out_classes);
    LossResult loss = SoftmaxCrossEntropy(out, {0, 1});
    c.model->ZeroGrad();
    c.model->BackwardTo(0, loss.grad);  // Must not crash; grads flow.
    double mass = 0.0;
    for (Parameter* p : c.model->ParamsFrom(0)) {
      mass += p->grad.AbsMax();
    }
    EXPECT_GT(mass, 0.0);
  }
}

TEST(DeepLab, ProducesDenseLogitsAndTrains) {
  Rng rng(30);
  DeepLabConfig cfg;
  cfg.backbone_blocks_per_stage = 1;
  cfg.base_width = 4;
  cfg.num_classes = 3;
  cfg.output_h = 12;
  cfg.output_w = 12;
  auto model = PartitionIntoChain("dl", BuildDeepLabBlocks(cfg, rng),
                                  PartitionConfig{.target_modules = 4});
  Tensor x = Tensor::Randn({2, 3, 12, 12}, rng);
  Tensor out = model->ForwardFrom(0, x);
  ASSERT_EQ(out.Dim(), 4);
  EXPECT_EQ(out.Size(1), 3);
  EXPECT_EQ(out.Size(2), 12);
  EXPECT_EQ(out.Size(3), 12);
  std::vector<int> labels(2 * 12 * 12, 1);
  LossResult loss = PixelwiseCrossEntropy(out, labels);
  model->ZeroGrad();
  model->BackwardTo(0, loss.grad);
}

class TransformerChainTest : public ::testing::Test {
 protected:
  static TransformerConfig SmallConfig() {
    TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.dim = 8;
    cfg.heads = 2;
    cfg.ffn_dim = 16;
    cfg.num_encoder_layers = 2;
    cfg.num_decoder_layers = 2;
    cfg.max_len = 8;
    return cfg;
  }

  static Batch SmallBatch(Rng& rng) {
    Batch batch;
    batch.input = Tensor({2, 6});
    batch.target_input = Tensor({2, 6});
    for (int64_t i = 0; i < 12; ++i) {
      batch.input.Data()[i] = static_cast<float>(3 + rng.NextBelow(12));
      batch.target_input.Data()[i] = static_cast<float>(3 + rng.NextBelow(12));
    }
    batch.labels.assign(12, 5);
    return batch;
  }
};

TEST_F(TransformerChainTest, StageLayoutAndMemorySkip) {
  Rng rng(31);
  TransformerChainModel model("t", SmallConfig(), rng);
  EXPECT_EQ(model.NumStages(), 2 + 2 + 2);
  EXPECT_EQ(model.MaxForwardSkipStage(), 3);  // embed, enc0, enc1, memory entry.
  model.SetTraining(false);
  Batch batch = SmallBatch(rng);
  model.SetBatch(batch);
  Tensor full = model.ForwardFrom(0, batch.input);

  // Re-enter at the encoder memory boundary.
  Tensor memory = model.StageOutput(2);  // output of enc1 == memory
  Tensor resumed = model.ForwardFrom(3, memory);
  ASSERT_TRUE(resumed.SameShape(full));
  for (int64_t i = 0; i < full.NumEl(); ++i) {
    ASSERT_EQ(resumed.Data()[i], full.Data()[i]);
  }
}

TEST_F(TransformerChainTest, MemoryGradientsFlowIntoEncoders) {
  Rng rng(32);
  TransformerChainModel model("t", SmallConfig(), rng);
  Batch batch = SmallBatch(rng);
  model.SetBatch(batch);
  Tensor out = model.ForwardFrom(0, batch.input);
  LossResult loss = SequenceCrossEntropy(out, batch.labels);
  model.ZeroGrad();
  model.BackwardTo(0, loss.grad);
  // Encoder parameters receive gradient only through decoder cross-attention memory.
  double enc_mass = 0.0;
  for (Parameter* p : model.StageParams(1)) {
    enc_mass += p->grad.AbsMax();
  }
  EXPECT_GT(enc_mass, 0.0);
  double embed_mass = 0.0;
  for (Parameter* p : model.StageParams(0)) {
    embed_mass += p->grad.AbsMax();
  }
  EXPECT_GT(embed_mass, 0.0);
}

TEST_F(TransformerChainTest, EncoderGradCheckThroughMemoryRouting) {
  // Numeric check of an encoder-layer weight: the analytic gradient crosses the
  // decoder stack and the accumulated memory gradient — the riskiest wiring here.
  Rng rng(33);
  TransformerChainModel model("t", SmallConfig(), rng);
  Batch batch = SmallBatch(rng);
  model.SetBatch(batch);

  auto loss_value = [&]() -> double {
    Tensor out = model.ForwardFrom(0, batch.input);
    return SequenceCrossEntropy(out, batch.labels).loss;
  };
  Tensor out = model.ForwardFrom(0, batch.input);
  LossResult loss = SequenceCrossEntropy(out, batch.labels);
  model.ZeroGrad();
  model.BackwardTo(0, loss.grad);

  int checked = 0;
  for (Parameter* p : model.StageParams(1)) {  // First encoder layer.
    const int64_t n = p->value.NumEl();
    for (int64_t i = 0; i < n && checked < 8; i += std::max<int64_t>(1, n / 2)) {
      const float analytic = p->grad.Data()[i];
      float* ptr = p->value.Data() + i;
      const float saved = *ptr;
      const double eps = 1e-2;
      *ptr = saved + static_cast<float>(eps);
      const double up = loss_value();
      *ptr = saved - static_cast<float>(eps);
      const double down = loss_value();
      *ptr = saved;
      const double numeric = (up - down) / (2 * eps);
      const double denom = std::max({std::abs(numeric), std::abs(double{analytic}), 0.02});
      EXPECT_LT(std::abs(analytic - numeric) / denom, 0.12)
          << p->name << "[" << i << "] analytic=" << analytic << " numeric=" << numeric;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_F(TransformerChainTest, FrozenDecoderPrefixSkipsEncoderBackward) {
  Rng rng(34);
  TransformerChainModel model("t", SmallConfig(), rng);
  Batch batch = SmallBatch(rng);
  model.SetBatch(batch);
  Tensor out = model.ForwardFrom(0, batch.input);
  LossResult loss = SequenceCrossEntropy(out, batch.labels);
  model.ZeroGrad();
  // Frontier inside the decoder region: stages 0..3 frozen (embed+encs+dec0? no:
  // stage 4 = dec1). stop=4 keeps only dec1 and the projection active.
  model.BackwardTo(4, loss.grad);
  for (int s = 0; s <= 3; ++s) {
    for (Parameter* p : model.StageParams(s)) {
      EXPECT_FLOAT_EQ(p->grad.AbsMax(), 0.0F) << p->name;
    }
  }
  double active = 0.0;
  for (Parameter* p : model.StageParams(4)) {
    active += p->grad.AbsMax();
  }
  EXPECT_GT(active, 0.0);
}

// The first decoder stage owns the target embedding, which runs backward
// after that decoder layer: the observer must report the stage only once the
// embedding's gradients have landed, so every reported stage's gradients are
// already final. Stages come deepest first, and none below `stop`.
TEST_F(TransformerChainTest, BackwardObserverWaitsForTargetEmbedding) {
  Rng rng(36);
  TransformerChainModel model("t", SmallConfig(), rng);
  Batch batch = SmallBatch(rng);
  model.SetBatch(batch);
  const int dec0 = 3;  // embed, enc0, enc1, dec0, dec1, proj
  ASSERT_EQ(model.StageModules(dec0).size(), 1U);
  const std::vector<Parameter*> tgt_embed = model.StageModules(dec0)[0]->Parameters();
  ASSERT_FALSE(tgt_embed.empty());

  std::vector<int> seen;
  std::vector<std::vector<float>> at_notify(static_cast<size_t>(model.NumStages()));
  double tgt_embed_mass_at_notify = 0.0;
  model.SetStageBackwardObserver([&](int stage) {
    seen.push_back(stage);
    for (Parameter* p : model.StageParams(stage)) {
      at_notify[static_cast<size_t>(stage)].insert(
          at_notify[static_cast<size_t>(stage)].end(), p->grad.Data(),
          p->grad.Data() + p->grad.NumEl());
    }
    if (stage == dec0) {
      for (Parameter* p : tgt_embed) {
        tgt_embed_mass_at_notify += p->grad.AbsMax();
      }
    }
  });
  for (int stop : {0, dec0, dec0 + 1}) {
    Tensor out = model.ForwardFrom(0, batch.input);
    LossResult loss = SequenceCrossEntropy(out, batch.labels);
    model.ZeroGrad();
    seen.clear();
    for (auto& grads : at_notify) {
      grads.clear();
    }
    tgt_embed_mass_at_notify = 0.0;
    model.BackwardTo(stop, loss.grad);

    std::vector<int> expected;
    for (int i = model.NumStages() - 1; i >= stop; --i) {
      expected.push_back(i);
    }
    EXPECT_EQ(seen, expected) << "stop " << stop;
    for (int stage : seen) {
      std::vector<float> final_grads;
      for (Parameter* p : model.StageParams(stage)) {
        final_grads.insert(final_grads.end(), p->grad.Data(),
                           p->grad.Data() + p->grad.NumEl());
      }
      EXPECT_EQ(at_notify[static_cast<size_t>(stage)], final_grads)
          << "stage " << stage << " reported before its gradients were final";
    }
    if (stop <= dec0) {
      EXPECT_GT(tgt_embed_mass_at_notify, 0.0)
          << "decoder stage 0 reported before the target embedding's backward";
    }
  }
  model.SetStageBackwardObserver(nullptr);
}

TEST(BertChain, SpanModelTrainsOneStep) {
  Rng rng(35);
  BertConfig cfg;
  cfg.vocab = 16;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.ffn_dim = 16;
  cfg.num_layers = 2;
  cfg.max_len = 12;
  auto model = PartitionIntoChain("bert", BuildBertBlocks(cfg, rng),
                                  PartitionConfig{.target_modules = 4});
  Batch batch;
  batch.input = Tensor({2, 10});
  for (int64_t i = 0; i < 20; ++i) {
    batch.input.Data()[i] = static_cast<float>(3 + rng.NextBelow(10));
  }
  batch.spans = {{2, 4}, {5, 6}};
  Tensor out = model->ForwardFrom(0, batch.input);
  ASSERT_EQ(out.Size(2), 2);
  LossResult loss = SpanLoss(out, batch.spans);
  EXPECT_GT(loss.loss, 0.0F);
  model->ZeroGrad();
  model->BackwardTo(0, loss.grad);
}

}  // namespace
}  // namespace egeria
