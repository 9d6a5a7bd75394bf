// Tensor and kernel correctness: matmul family vs naive reference, im2col/col2im
// adjointness, softmax properties, pooling shapes, upsample adjointness.
#include <gtest/gtest.h>

#include <cmath>

#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.Size(0);
  const int64_t k = a.Size(1);
  const int64_t n = b.Size(1);
  Tensor c({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0;
      for (int64_t p = 0; p < k; ++p) {
        s += static_cast<double>(a.At(i, p)) * b.At(p, j);
      }
      c.At(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

void ExpectNear(const Tensor& a, const Tensor& b, float tol) {
  ASSERT_EQ(a.NumEl(), b.NumEl());
  for (int64_t i = 0; i < a.NumEl(); ++i) {
    EXPECT_NEAR(a.Data()[i], b.Data()[i], tol) << "at " << i;
  }
}

struct MatShape {
  int64_t m, k, n;
};

class MatMulTest : public ::testing::TestWithParam<MatShape> {};

TEST_P(MatMulTest, AgreesWithNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  ExpectNear(MatMul(a, b), NaiveMatMul(a, b), 1e-4F);
  // TransA: (A^T)^T B where we feed A^T.
  Tensor at = Transpose2d(a);
  ExpectNear(MatMulTransA(at, b), NaiveMatMul(a, b), 1e-4F);
  Tensor bt = Transpose2d(b);
  ExpectNear(MatMulTransB(a, bt), NaiveMatMul(a, b), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulTest,
                         ::testing::Values(MatShape{1, 1, 1}, MatShape{3, 4, 5},
                                           MatShape{8, 8, 8}, MatShape{5, 17, 3},
                                           MatShape{16, 2, 16}, MatShape{2, 32, 2}));

TEST(TensorOps, BatchedMatMulMatchesPerSlice) {
  Rng rng(7);
  Tensor a = Tensor::Randn({3, 4, 5}, rng);
  Tensor b = Tensor::Randn({3, 5, 6}, rng);
  Tensor c = BatchedMatMul(a, b);
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor as({4, 5});
    Tensor bs({5, 6});
    std::copy(a.Data() + bi * 20, a.Data() + (bi + 1) * 20, as.Data());
    std::copy(b.Data() + bi * 30, b.Data() + (bi + 1) * 30, bs.Data());
    Tensor cs = NaiveMatMul(as, bs);
    for (int64_t i = 0; i < 24; ++i) {
      EXPECT_NEAR(c.Data()[bi * 24 + i], cs.Data()[i], 1e-4F);
    }
  }
}

TEST(TensorOps, BatchedMatMulTransBMatchesComposition) {
  Rng rng(8);
  Tensor a = Tensor::Randn({2, 3, 4}, rng);
  Tensor b = Tensor::Randn({2, 5, 4}, rng);
  Tensor c1 = BatchedMatMul(a, b, /*trans_b=*/true);
  // Compose via explicit transpose.
  Tensor bt({2, 4, 5});
  for (int64_t bi = 0; bi < 2; ++bi) {
    for (int64_t i = 0; i < 5; ++i) {
      for (int64_t j = 0; j < 4; ++j) {
        bt.At(bi, j, i) = b.At(bi, i, j);
      }
    }
  }
  Tensor c2 = BatchedMatMul(a, bt);
  ExpectNear(c1, c2, 1e-4F);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(13);
  Tensor x = Tensor::Randn({4, 7}, rng, 3.0F);
  Tensor s = Softmax(x);
  for (int64_t r = 0; r < 4; ++r) {
    double sum = 0;
    for (int64_t j = 0; j < 7; ++j) {
      const float v = s.At(r, j);
      EXPECT_GE(v, 0.0F);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(TensorOps, SoftmaxInvariantToShift) {
  Rng rng(14);
  Tensor x = Tensor::Randn({2, 5}, rng);
  Tensor y = x.Clone();
  y.AddScalar_(100.0F);
  ExpectNear(Softmax(x), Softmax(y), 1e-5F);
}

TEST(TensorOps, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(15);
  Tensor x = Tensor::Randn({3, 6}, rng, 2.0F);
  Tensor ls = LogSoftmax(x);
  Tensor s = Softmax(x);
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    EXPECT_NEAR(ls.Data()[i], std::log(s.Data()[i]), 1e-4F);
  }
}

TEST(TensorOps, UpsampleAdjoint) {
  Rng rng(16);
  Tensor x = Tensor::Randn({1, 2, 4, 4}, rng);
  Tensor up = BilinearUpsampleForward(x, 8, 8);
  Tensor g = Tensor::Randn(up.Shape(), rng);
  const double lhs = up.Dot(g);
  Tensor back = BilinearUpsampleBackward(g, 4, 4);
  const double rhs = x.Dot(back);
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

TEST(TensorOps, ConcatSplitRoundTrip) {
  Rng rng(17);
  Tensor a = Tensor::Randn({2, 3, 4, 4}, rng);
  Tensor b = Tensor::Randn({2, 5, 4, 4}, rng);
  Tensor cat = ConcatChannels({a, b});
  EXPECT_EQ(cat.Size(1), 8);
  auto parts = SplitChannels(cat, {3, 5});
  ExpectNear(parts[0], a, 0.0F);
  ExpectNear(parts[1], b, 0.0F);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t = Tensor::Ones({2, 6});
  Tensor r = t.Reshape({3, 4});
  r.At(0, 0) = 5.0F;
  EXPECT_FLOAT_EQ(t.At(0, 0), 5.0F);
  Tensor inferred = t.Reshape({4, -1});
  EXPECT_EQ(inferred.Size(1), 3);
}

TEST(Tensor, MakeUniqueDetaches) {
  Tensor t = Tensor::Ones({4});
  Tensor alias = t;
  alias.MakeUnique();
  alias.At(0) = 2.0F;
  EXPECT_FLOAT_EQ(t.At(0), 1.0F);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::FromVector({4}, {1.0F, -3.0F, 2.0F, 0.5F});
  EXPECT_FLOAT_EQ(t.Sum(), 0.5F);
  EXPECT_FLOAT_EQ(t.AbsMax(), 3.0F);
  EXPECT_FLOAT_EQ(t.Min(), -3.0F);
  EXPECT_FLOAT_EQ(t.Max(), 2.0F);
  EXPECT_NEAR(t.L2Norm(), std::sqrt(1 + 9 + 4 + 0.25), 1e-5);
}

TEST(Tensor, HasNonFinite) {
  Tensor t = Tensor::Ones({3});
  EXPECT_FALSE(t.HasNonFinite());
  t.At(1) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(t.HasNonFinite());
}

}  // namespace
}  // namespace egeria
