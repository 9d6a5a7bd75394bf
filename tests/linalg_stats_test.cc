// QR/SVD numerical properties, streaming statistics (Equation 2 semantics, slope
// fitting), RNG determinism, and tensor serialization round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "src/tensor/linalg.h"
#include "src/tensor/serialize.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace egeria {
namespace {

struct QrShape {
  int64_t n, p;
};

class QrTest : public ::testing::TestWithParam<QrShape> {};

TEST_P(QrTest, ReconstructsAndOrthonormal) {
  const auto [n, p] = GetParam();
  Rng rng(n * 31 + p);
  Tensor a = Tensor::Randn({n, p}, rng);
  QrResult qr = HouseholderQr(a);
  // Q^T Q == I.
  Tensor qtq = MatMulTransA(qr.q, qr.q);
  for (int64_t i = 0; i < p; ++i) {
    for (int64_t j = 0; j < p; ++j) {
      EXPECT_NEAR(qtq.At(i, j), (i == j) ? 1.0F : 0.0F, 1e-4F);
    }
  }
  // Q R == A.
  Tensor recon = MatMul(qr.q, qr.r);
  for (int64_t i = 0; i < a.NumEl(); ++i) {
    EXPECT_NEAR(recon.Data()[i], a.Data()[i], 1e-4F);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrTest,
                         ::testing::Values(QrShape{4, 4}, QrShape{10, 3}, QrShape{30, 8},
                                           QrShape{64, 16}));

struct SvdShape {
  int64_t m, n;
};

class SvdTest : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdTest, ReconstructsWithOrthonormalFactors) {
  const auto [m, n] = GetParam();
  Rng rng(m * 13 + n);
  Tensor a = Tensor::Randn({m, n}, rng);
  SvdResult svd = JacobiSvd(a);
  const int64_t r = static_cast<int64_t>(svd.s.size());
  EXPECT_EQ(r, std::min(m, n));
  // Descending singular values.
  for (int64_t i = 1; i < r; ++i) {
    EXPECT_GE(svd.s[static_cast<size_t>(i - 1)], svd.s[static_cast<size_t>(i)] - 1e-5F);
  }
  // A == U diag(s) V^T.
  Tensor us({m, r});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      us.At(i, j) = svd.u.At(i, j) * svd.s[static_cast<size_t>(j)];
    }
  }
  Tensor recon = MatMulTransB(us, svd.v);
  for (int64_t i = 0; i < a.NumEl(); ++i) {
    EXPECT_NEAR(recon.Data()[i], a.Data()[i], 1e-3F);
  }
  // U columns orthonormal.
  Tensor utu = MatMulTransA(svd.u, svd.u);
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      EXPECT_NEAR(utu.At(i, j), (i == j) ? 1.0F : 0.0F, 1e-3F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdTest,
                         ::testing::Values(SvdShape{4, 4}, SvdShape{8, 5}, SvdShape{6, 6},
                                           SvdShape{20, 10}));

TEST(Linalg, CenterColumnsZeroesMeans) {
  Rng rng(3);
  Tensor a = Tensor::Randn({20, 4}, rng);
  a.AddScalar_(5.0F);
  CenterColumns(a);
  for (int64_t j = 0; j < 4; ++j) {
    double mean = 0;
    for (int64_t i = 0; i < 20; ++i) {
      mean += a.At(i, j);
    }
    EXPECT_NEAR(mean / 20.0, 0.0, 1e-5);
  }
}

TEST(Stats, MovingAverageWarmupMatchesEquationTwo) {
  MovingAverage ma(3);
  EXPECT_DOUBLE_EQ(ma.Add(6.0), 6.0);              // i < W: mean of all
  EXPECT_DOUBLE_EQ(ma.Add(0.0), 3.0);
  EXPECT_DOUBLE_EQ(ma.Add(3.0), 3.0);
  EXPECT_DOUBLE_EQ(ma.Add(9.0), 4.0);              // window: (0+3+9)/3
  ma.SetWindow(2);
  EXPECT_DOUBLE_EQ(ma.Value(), 6.0);               // (3+9)/2 after shrink
}

TEST(Stats, LinearFitExactOnLine) {
  WindowedLinearFit fit(5);
  for (int i = 0; i < 5; ++i) {
    fit.Add(2.0 * i + 1.0);
  }
  LinearFit f = fit.Fit();
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 1.0, 1e-9);
}

TEST(Stats, LinearFitWindowSlides) {
  WindowedLinearFit fit(3);
  // Values: 0,0,0 then 5,10 — window sees {0,5,10}: slope 5.
  for (double v : {0.0, 0.0, 0.0, 5.0, 10.0}) {
    fit.Add(v);
  }
  EXPECT_NEAR(fit.Fit().slope, 5.0, 1e-9);
}

TEST(Stats, FlatSeriesHasZeroSlope) {
  WindowedLinearFit fit(10);
  for (int i = 0; i < 10; ++i) {
    fit.Add(3.14);
  }
  EXPECT_NEAR(fit.Fit().slope, 0.0, 1e-12);
}

TEST(Stats, RunningStat) {
  RunningStat rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    rs.Add(v);
  }
  EXPECT_NEAR(rs.Mean(), 5.0, 1e-12);
  EXPECT_NEAR(rs.StdDev(), std::sqrt(32.0 / 7.0), 1e-9);
  EXPECT_DOUBLE_EQ(rs.Min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.Max(), 9.0);
}

TEST(Rng, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng k1 = Rng::ForKey(42, 7);
  Rng k2 = Rng::ForKey(42, 7);
  Rng k3 = Rng::ForKey(42, 8);
  EXPECT_EQ(k1.NextU64(), k2.NextU64());
  EXPECT_NE(k1.NextU64(), k3.NextU64());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(2);
  RunningStat rs;
  for (int i = 0; i < 20000; ++i) {
    rs.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(rs.Mean(), 0.0, 0.05);
  EXPECT_NEAR(rs.StdDev(), 1.0, 0.05);
}

TEST(Serialize, CheckpointRoundTrip) {
  Rng rng(6);
  Checkpoint ckpt;
  ckpt["w1"] = Tensor::Randn({2, 3}, rng);
  ckpt["bias"] = Tensor::Randn({7}, rng);
  const std::string path = ::testing::TempDir() + "/egeria_ckpt.egc";
  ASSERT_TRUE(SaveCheckpoint(path, ckpt));
  Checkpoint loaded;
  ASSERT_TRUE(LoadCheckpoint(path, loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded["w1"].Shape(), ckpt["w1"].Shape());
  EXPECT_EQ(loaded["bias"].At(3), ckpt["bias"].At(3));
}

TEST(Serialize, CorruptFileFailsGracefully) {
  const std::string path = ::testing::TempDir() + "/egeria_bad.egt";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a tensor";
  }
  Checkpoint c;
  EXPECT_FALSE(LoadCheckpoint(path, c));
}

}  // namespace
}  // namespace egeria
