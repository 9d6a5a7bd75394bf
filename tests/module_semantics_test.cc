// Module-level semantics Egeria relies on beyond plain gradients: freeze flags,
// training/inference modes, attention masking, dropout determinism, embedding
// gradients, state copying, and Backward's guard against a stale cache.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/nn/activations.h"
#include "src/nn/attention.h"
#include "src/nn/batchnorm.h"
#include "src/nn/blocks.h"
#include "src/nn/conv2d.h"
#include "src/nn/dropout.h"
#include "src/nn/embedding.h"
#include "src/nn/linear.h"
#include "src/nn/sequential.h"
#include "src/nn/transformer_layers.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

TEST(ModuleSemantics, FreezeFlagRecursesIntoChildren) {
  Rng rng(1);
  auto block = std::make_unique<BasicResidualBlock>("b", 4, 4, 1, rng);
  block->SetFrozen(true);
  for (Module* child : block->Children()) {
    EXPECT_TRUE(child->frozen()) << child->name();
  }
  block->SetFrozen(false);
  for (Module* child : block->Children()) {
    EXPECT_FALSE(child->frozen());
  }
}

TEST(ModuleSemantics, FrozenBatchNormStopsUpdatingRunningStats) {
  Rng rng(2);
  BatchNorm2d bn("bn", 3);
  for (int i = 0; i < 4; ++i) {
    bn.Forward(Tensor::Randn({4, 3, 5, 5}, rng));
  }
  const Tensor mean_before = bn.running_mean().Clone();
  bn.SetFrozen(true);
  bn.Forward(Tensor::Randn({4, 3, 5, 5}, rng, 10.0F));
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(bn.running_mean().At(c), mean_before.At(c));
  }
}

TEST(ModuleSemantics, FrozenBatchNormOutputIsInputDeterministic) {
  // The cache-compatibility property (paper S4.3): a frozen BN gives the same
  // output for the same input regardless of what batch it appears in.
  Rng rng(3);
  BatchNorm2d bn("bn", 2);
  for (int i = 0; i < 3; ++i) {
    bn.Forward(Tensor::Randn({4, 2, 4, 4}, rng));
  }
  bn.SetFrozen(true);
  Tensor x = Tensor::Randn({2, 2, 4, 4}, rng);
  Tensor y1 = bn.Forward(x);
  bn.Forward(Tensor::Randn({2, 2, 4, 4}, rng, 5.0F));  // Unrelated batch between.
  Tensor y2 = bn.Forward(x);
  for (int64_t i = 0; i < y1.NumEl(); ++i) {
    EXPECT_EQ(y1.Data()[i], y2.Data()[i]);
  }
}

// An eval-mode Forward keeps no Backward cache, so a Backward at its batch
// size must stop at the shape check instead of reading past the smaller
// batch that the last training Forward cached.
TEST(ModuleSemanticsDeathTest, BackwardAfterEvalForwardChecksTheCachedShape) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(9);
  Conv2d conv("conv", 3, 3, 3, rng);
  BatchNorm2d bn("bn", 3);
  ReLU relu("relu");
  ReLU6 relu6("relu6");
  for (Module* m : std::vector<Module*>{&conv, &bn, &relu, &relu6}) {
    m->SetTraining(true);
    m->Forward(Tensor::Randn({2, 3, 5, 5}, rng));
    m->SetTraining(false);
    const Tensor y = m->Forward(Tensor::Randn({8, 3, 5, 5}, rng));
    EXPECT_DEATH(m->Backward(y), "does not match the cached training Forward")
        << m->name();
  }
}

TEST(ModuleSemantics, DropoutDisabledWhenFrozenOrEval) {
  Rng rng(4);
  Dropout drop("d", 0.5F);
  Tensor x = Tensor::Ones({4, 8});
  drop.SetTraining(false);
  Tensor eval_out = drop.Forward(x);
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    EXPECT_EQ(eval_out.Data()[i], 1.0F);
  }
  drop.SetTraining(true);
  drop.SetFrozen(true);
  Tensor frozen_out = drop.Forward(x);
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    EXPECT_EQ(frozen_out.Data()[i], 1.0F);
  }
  drop.SetFrozen(false);
  Tensor train_out = drop.Forward(x);
  int zeros = 0;
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    if (train_out.Data()[i] == 0.0F) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(train_out.Data()[i], 2.0F);  // Inverted scaling 1/(1-p).
    }
  }
  EXPECT_GT(zeros, 0);
}

TEST(ModuleSemantics, DropoutStepReplayIsDeterministic) {
  Rng rng(5);
  Tensor x = Tensor::Ones({4, 8});
  Dropout a("d", 0.5F, 99);
  Dropout b("d", 0.5F, 99);
  a.SetStep(7);
  b.SetStep(7);
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    EXPECT_EQ(ya.Data()[i], yb.Data()[i]);
  }
  // A different step yields a different mask.
  Dropout c("d", 0.5F, 99);
  c.SetStep(8);
  Tensor yc = c.Forward(x);
  int diff = 0;
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    if (yc.Data()[i] != ya.Data()[i]) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 0);
}

TEST(ModuleSemantics, CausalMaskBlocksFutablePositions) {
  // Causal self-attention: output at position i must not depend on inputs j > i.
  Rng rng(6);
  MultiHeadAttention attn("a", 8, 2, rng);
  attn.SetTraining(false);
  Tensor x = Tensor::Randn({1, 4, 8}, rng);
  Tensor y1 = attn.Forward(x, x, /*causal=*/true);
  // Perturb the last position only.
  Tensor x2 = x.Clone();
  for (int64_t d = 0; d < 8; ++d) {
    x2.At(0, 3, d) += 10.0F;
  }
  Tensor y2 = attn.Forward(x2, x2, /*causal=*/true);
  for (int64_t t = 0; t < 3; ++t) {  // Earlier positions unchanged.
    for (int64_t d = 0; d < 8; ++d) {
      EXPECT_NEAR(y1.At(0, t, d), y2.At(0, t, d), 1e-4F) << "t=" << t;
    }
  }
  // Without the mask, earlier positions do change.
  Tensor u1 = attn.Forward(x, x, /*causal=*/false);
  Tensor u2 = attn.Forward(x2, x2, /*causal=*/false);
  double delta = 0.0;
  for (int64_t d = 0; d < 8; ++d) {
    delta += std::abs(u1.At(0, 0, d) - u2.At(0, 0, d));
  }
  EXPECT_GT(delta, 1e-3);
}

TEST(ModuleSemantics, CrossAttentionGradsSplitQueryAndMemory) {
  Rng rng(7);
  MultiHeadAttention attn("a", 8, 2, rng);
  Tensor q = Tensor::Randn({2, 3, 8}, rng);
  Tensor kv = Tensor::Randn({2, 5, 8}, rng);
  Tensor out = attn.Forward(q, kv, false);
  EXPECT_EQ(out.Size(1), 3);
  auto [dq, dkv] = attn.Backward(Tensor::Randn(out.Shape(), rng));
  EXPECT_EQ(dq.Size(1), 3);
  EXPECT_EQ(dkv.Size(1), 5);
  EXPECT_GT(dq.AbsMax(), 0.0F);
  EXPECT_GT(dkv.AbsMax(), 0.0F);
}

TEST(ModuleSemantics, EmbeddingGradAccumulatesPerToken) {
  Rng rng(8);
  Embedding embed("e", 6, 4, rng);
  Tensor ids = Tensor::FromVector({1, 3}, {2.0F, 2.0F, 5.0F});  // Token 2 twice.
  embed.Forward(ids);
  Tensor grad = Tensor::Ones({1, 3, 4});
  embed.Backward(grad);
  Parameter* w = embed.LocalParams()[0];
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(w->grad.At(2, d), 2.0F);  // Two occurrences accumulate.
    EXPECT_FLOAT_EQ(w->grad.At(5, d), 1.0F);
    EXPECT_FLOAT_EQ(w->grad.At(0, d), 0.0F);
  }
}

TEST(ModuleSemantics, ParametersAreUniqueAndNamed) {
  Rng rng(9);
  TransformerEncoderLayer layer("enc", 8, 2, 16, rng);
  auto params = layer.Parameters();
  std::set<Parameter*> unique(params.begin(), params.end());
  EXPECT_EQ(unique.size(), params.size());
  std::set<std::string> names;
  for (Parameter* p : params) {
    EXPECT_FALSE(p->name.empty());
    names.insert(p->name);
  }
  EXPECT_EQ(names.size(), params.size());
}

TEST(ModuleSemantics, CopyStateFromTransfersBatchNormStats) {
  Rng rng(10);
  auto a = std::make_unique<BasicResidualBlock>("b", 4, 4, 1, rng);
  auto b = std::make_unique<BasicResidualBlock>("b", 4, 4, 1, rng);
  for (int i = 0; i < 4; ++i) {
    a->Forward(Tensor::Randn({4, 4, 6, 6}, rng));
  }
  b->CopyStateFrom(*a);
  a->SetTraining(false);
  b->SetTraining(false);
  Tensor x = Tensor::Randn({2, 4, 6, 6}, rng);
  Tensor ya = a->Forward(x);
  Tensor yb = b->Forward(x);
  for (int64_t i = 0; i < ya.NumEl(); ++i) {
    EXPECT_EQ(ya.Data()[i], yb.Data()[i]);
  }
}

TEST(ModuleSemantics, SequentialReleaseTransfersOwnership) {
  Rng rng(11);
  Sequential seq("s");
  seq.Add(std::make_unique<Linear>("a", 4, 4, rng));
  seq.Add(std::make_unique<Linear>("b", 4, 4, rng));
  auto modules = seq.ReleaseModules();
  EXPECT_EQ(modules.size(), 2u);
  EXPECT_EQ(seq.size(), 0u);
  EXPECT_EQ(modules[0]->name(), "a");
}

}  // namespace
}  // namespace egeria
