// Dataset and loader properties. The load-bearing invariant is determinism: a sample
// (including augmentation) is a pure function of (seed, index), which the activation
// cache requires (paper S4.3).
#include <gtest/gtest.h>

#include "src/data/dataloader.h"
#include "src/data/synthetic_image.h"
#include "src/data/synthetic_seg.h"
#include "src/data/synthetic_text.h"

namespace egeria {
namespace {

TEST(SyntheticImage, SamplesDeterministicAcrossFetches) {
  SyntheticImageConfig cfg;
  cfg.num_samples = 64;
  SyntheticImageDataset ds(cfg);
  Batch a = ds.GetBatch({3, 17, 42});
  Batch b = ds.GetBatch({3, 17, 42});
  for (int64_t i = 0; i < a.input.NumEl(); ++i) {
    ASSERT_EQ(a.input.Data()[i], b.input.Data()[i]);
  }
  EXPECT_EQ(a.labels, b.labels);
}

TEST(SyntheticImage, LabelsFollowIndexModuloClasses) {
  SyntheticImageConfig cfg;
  cfg.num_classes = 7;
  cfg.num_samples = 70;
  SyntheticImageDataset ds(cfg);
  Batch b = ds.GetBatch({0, 7, 13});
  EXPECT_EQ(b.labels[0], 0);
  EXPECT_EQ(b.labels[1], 0);
  EXPECT_EQ(b.labels[2], 6);
}

TEST(SyntheticImage, SaltChangesSamplesNotClasses) {
  SyntheticImageConfig train_cfg;
  train_cfg.num_samples = 32;
  train_cfg.noise_std = 0.1F;
  SyntheticImageDataset train(train_cfg);
  auto val_cfg = train_cfg;
  val_cfg.sample_salt = 999999;
  SyntheticImageDataset val(val_cfg);

  Batch a = train.GetBatch({5});
  Batch b = val.GetBatch({5});
  // Different pixel values (different augmentation/noise)...
  double diff = 0.0;
  for (int64_t i = 0; i < a.input.NumEl(); ++i) {
    diff += std::abs(a.input.Data()[i] - b.input.Data()[i]);
  }
  EXPECT_GT(diff, 1.0);
  // ... but same label and same underlying class prototype (high correlation of the
  // two samples with each other, low with a different class).
  EXPECT_EQ(a.labels[0], b.labels[0]);
}

TEST(SyntheticImage, SameClassMoreSimilarThanCrossClass) {
  SyntheticImageConfig cfg;
  cfg.num_samples = 64;
  cfg.num_classes = 4;
  cfg.noise_std = 0.1F;
  cfg.augment = false;
  SyntheticImageDataset ds(cfg);
  // Samples 0 and 4 share class 0; sample 1 is class 1.
  Batch b = ds.GetBatch({0, 4, 1});
  const int64_t n = b.input.NumEl() / 3;
  auto dist = [&](int64_t i, int64_t j) {
    double d = 0;
    for (int64_t k = 0; k < n; ++k) {
      const double v = b.input.Data()[i * n + k] - b.input.Data()[j * n + k];
      d += v * v;
    }
    return d;
  };
  EXPECT_LT(dist(0, 1), dist(0, 2));
}

TEST(SyntheticSeg, LabelsMatchGeometry) {
  SyntheticSegConfig cfg;
  cfg.num_samples = 16;
  SyntheticSegDataset ds(cfg);
  Batch b = ds.GetBatch({0, 1});
  EXPECT_EQ(static_cast<int64_t>(b.labels.size()), 2 * cfg.height * cfg.width);
  // At least one non-background pixel per sample, all labels in range.
  for (int64_t s = 0; s < 2; ++s) {
    int nonbg = 0;
    for (int64_t i = 0; i < cfg.height * cfg.width; ++i) {
      const int label = b.labels[static_cast<size_t>(s * cfg.height * cfg.width + i)];
      EXPECT_GE(label, 0);
      EXPECT_LT(label, cfg.num_classes);
      if (label != 0) {
        ++nonbg;
      }
    }
    EXPECT_GT(nonbg, 0);
  }
}

TEST(SyntheticTranslation, TargetFollowsReversalRule) {
  SyntheticTranslationConfig cfg;
  cfg.vocab = 16;
  cfg.seq_len = 6;
  cfg.num_samples = 8;
  SyntheticTranslationDataset ds(cfg);
  Batch b = ds.GetBatch({3});
  // Decoder input is [BOS, y0..y{t-2}]; labels are y0..y{t-1}.
  EXPECT_EQ(static_cast<int>(b.target_input.At(0, 0)), kBosToken);
  for (int64_t j = 1; j < cfg.seq_len; ++j) {
    EXPECT_EQ(static_cast<int>(b.target_input.At(0, j)),
              b.labels[static_cast<size_t>(j - 1)]);
  }
  // The same source token always maps to the same target token (fixed permutation):
  // y[i] depends only on src[t-1-i].
  Batch c = ds.GetBatch({3});
  EXPECT_EQ(b.labels, c.labels);
}

TEST(SyntheticQa, SpanIsMarked) {
  SyntheticQaConfig cfg;
  cfg.seq_len = 16;
  cfg.num_samples = 8;
  SyntheticQaDataset ds(cfg);
  Batch b = ds.GetBatch({2, 5});
  for (int64_t s = 0; s < 2; ++s) {
    const auto [start, end] = b.spans[static_cast<size_t>(s)];
    ASSERT_GE(start, 1);
    ASSERT_LE(end, cfg.seq_len - 2);
    ASSERT_LE(start, end);
    EXPECT_EQ(static_cast<int>(b.input.At(s, start - 1)), kMarkToken);
    EXPECT_EQ(static_cast<int>(b.input.At(s, end + 1)), kMarkToken);
  }
}

TEST(DataLoader, EpochPermutationDeterministic) {
  SyntheticImageConfig cfg;
  cfg.num_samples = 64;
  SyntheticImageDataset ds(cfg);
  DataLoader a(ds, 8, /*shuffle=*/true, 7);
  DataLoader b(ds, 8, /*shuffle=*/true, 7);
  a.StartEpoch(3);
  b.StartEpoch(3);
  EXPECT_EQ(a.BatchIndices(2), b.BatchIndices(2));
  a.StartEpoch(4);
  EXPECT_NE(a.BatchIndices(2), b.BatchIndices(2));
}

TEST(DataLoader, LimitSamplesSubsets) {
  SyntheticImageConfig cfg;
  cfg.num_samples = 128;
  SyntheticImageDataset ds(cfg);
  DataLoader loader(ds, 8, false, 1, /*limit_samples=*/32);
  EXPECT_EQ(loader.NumBatches(), 4);
  // The feature store sizes its table by the ids the loader draws from.
  EXPECT_EQ(loader.num_samples(), 32);
}

TEST(DataLoader, PermutationCoversDatasetOnce) {
  SyntheticImageConfig cfg;
  cfg.num_samples = 40;
  SyntheticImageDataset ds(cfg);
  DataLoader loader(ds, 10, true, 5);
  loader.StartEpoch(1);
  std::vector<int64_t> seen;
  for (int64_t b = 0; b < loader.NumBatches(); ++b) {
    for (int64_t id : loader.BatchIndices(b)) {
      seen.push_back(id);
    }
  }
  std::sort(seen.begin(), seen.end());
  for (int64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], i);
  }
}

}  // namespace
}  // namespace egeria
