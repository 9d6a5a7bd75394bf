// Pins the direct convolution kernels (src/tensor/conv.h) bit for bit against
// the im2col + Gemm lowering they replace, and Conv2d's gradients across
// compute-pool widths.
//
// The reference below is that lowering written out: Im2Col, one Gemm per item
// for the output and for the column gradient, a scatter-add col2im for the
// input gradient, and the weight gradient as per-item Gemms folded in
// ascending item order (the first assigned) and added to grad once. Gemm's
// own results do not depend on the thread count, so the reference holds at
// any pool width.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/tensor/conv.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

struct Case {
  int64_t batch, c, h, w, oc, k, stride, pad, dil;
  bool bias;
};

std::string Name(const Case& cs) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "b%lld_c%lld_%lldx%lld_oc%lld_k%lld_s%lld_p%lld_d%lld_%s",
                static_cast<long long>(cs.batch), static_cast<long long>(cs.c),
                static_cast<long long>(cs.h), static_cast<long long>(cs.w),
                static_cast<long long>(cs.oc), static_cast<long long>(cs.k),
                static_cast<long long>(cs.stride), static_cast<long long>(cs.pad),
                static_cast<long long>(cs.dil), cs.bias ? "bias" : "nobias");
  return buf;
}

struct Grads {
  Tensor out, dx, dw, db;
};

// Conv2d's arithmetic before the direct kernels, one item at a time.
Grads Reference(const Tensor& x, const Tensor& w, const Tensor& bias, const Tensor& dy,
                const Tensor& dw0, const Tensor& db0, const ConvGeom& geom, bool has_bias) {
  const int64_t b = x.Size(0);
  const int64_t c = x.Size(1);
  const int64_t h = x.Size(2);
  const int64_t wd = x.Size(3);
  const int64_t oc = w.Size(0);
  const int64_t oh = geom.OutH(h);
  const int64_t ow = geom.OutW(wd);
  const int64_t ohow = oh * ow;
  const int64_t ckk = w.Size(1);
  const Tensor cols = Im2Col(x, geom);
  Grads r;
  r.out = Tensor({b, oc, oh, ow});
  Tensor dcols({b, ckk, ohow});
  Tensor dw_fold({oc, ckk});
  for (int64_t i = 0; i < b; ++i) {
    const float* col = cols.Data() + i * ckk * ohow;
    const float* dyi = dy.Data() + i * oc * ohow;
    float* out = r.out.Data() + i * oc * ohow;
    Gemm(w.Data(), col, out, oc, ckk, ohow, false, false, false);
    if (has_bias) {
      for (int64_t o = 0; o < oc; ++o) {
        for (int64_t q = 0; q < ohow; ++q) {
          out[o * ohow + q] += bias.Data()[o];
        }
      }
    }
    Gemm(w.Data(), dyi, dcols.Data() + i * ckk * ohow, ckk, oc, ohow, true, false,
         false);
    Gemm(dyi, col, dw_fold.Data(), oc, ohow, ckk, false, true, /*accumulate=*/i != 0);
  }
  r.dw = dw0.Clone();
  r.dw.Add_(dw_fold);
  r.db = db0.Clone();
  if (has_bias) {
    for (int64_t o = 0; o < oc; ++o) {
      double total = 0.0;
      for (int64_t i = 0; i < b; ++i) {
        const float* plane = dy.Data() + (i * oc + o) * ohow;
        double s = 0.0;
        for (int64_t q = 0; q < ohow; ++q) {
          s += plane[q];
        }
        total += s;
      }
      r.db.Data()[o] += static_cast<float>(total);
    }
  }
  // col2im: scatter-add into a zeroed input gradient in ascending row order.
  r.dx = Tensor({b, c, h, wd});
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t ky = 0; ky < geom.kernel_h; ++ky) {
        for (int64_t kx = 0; kx < geom.kernel_w; ++kx) {
          const int64_t row = (ci * geom.kernel_h + ky) * geom.kernel_w + kx;
          const float* src = dcols.Data() + (i * ckk + row) * ohow;
          for (int64_t oy = 0; oy < oh; ++oy) {
            const int64_t iy = oy * geom.stride - geom.pad + ky * geom.dilation;
            for (int64_t ox = 0; ox < ow; ++ox) {
              const int64_t ix = ox * geom.stride - geom.pad + kx * geom.dilation;
              if (iy >= 0 && iy < h && ix >= 0 && ix < wd) {
                r.dx.At(i, ci, iy, ix) += src[oy * ow + ox];
              }
            }
          }
        }
      }
    }
  }
  return r;
}

void ExpectBitwise(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.Shape(), want.Shape()) << what;
  EXPECT_EQ(std::memcmp(got.Data(), want.Data(),
                        static_cast<size_t>(got.NumEl()) * sizeof(float)),
            0)
      << what << " differs from the im2col + Gemm reference";
}

class ConvKernelTest : public ::testing::TestWithParam<Case> {};

TEST_P(ConvKernelTest, MatchesIm2ColGemmBitwise) {
  const Case cs = GetParam();
  ConvGeom geom{cs.k, cs.k, cs.stride, cs.pad, cs.dil};
  Rng rng(static_cast<uint64_t>(cs.batch * 131 + cs.c * 17 + cs.oc));
  const int64_t ckk = cs.c * cs.k * cs.k;
  Tensor x = Tensor::Randn({cs.batch, cs.c, cs.h, cs.w}, rng);
  // Exact zeros, as ReLU outputs feed most convolutions.
  for (int64_t i = 0; i < x.NumEl(); i += 3) {
    x.Data()[i] = 0.0F;
  }
  Tensor w = Tensor::Randn({cs.oc, ckk}, rng, 0.2F);
  Tensor bias = Tensor::Randn({cs.oc}, rng);
  Tensor dy = Tensor::Randn({cs.batch, cs.oc, geom.OutH(cs.h), geom.OutW(cs.w)}, rng);
  Tensor dw0 = Tensor::Randn({cs.oc, ckk}, rng, 0.01F);
  Tensor db0 = Tensor::Randn({cs.oc}, rng, 0.01F);

  const Grads want = Reference(x, w, bias, dy, dw0, db0, geom, cs.bias);
  ConvInput packed(x, geom);
  Grads got;
  got.out = ConvForward(packed, w, cs.bias ? bias.Data() : nullptr);
  got.dw = dw0.Clone();
  got.db = db0.Clone();
  got.dx = ConvBackward(packed, dy, w, got.dw.Data(), cs.bias ? got.db.Data() : nullptr);
  ExpectBitwise(got.out, want.out, "output");
  ExpectBitwise(got.dx, want.dx, "input gradient");
  ExpectBitwise(got.dw, want.dw, "weight gradient");
  ExpectBitwise(got.db, want.db, "bias gradient");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvKernelTest,
    ::testing::Values(
        // The benchmark workloads' shapes (ResNet-56 and ResNet-20 stages).
        Case{16, 4, 12, 12, 4, 3, 1, 1, 1, false}, Case{16, 4, 12, 12, 8, 3, 2, 1, 1, false},
        Case{16, 4, 12, 12, 8, 1, 2, 0, 1, false}, Case{16, 16, 3, 3, 16, 3, 1, 1, 1, false},
        Case{16, 3, 12, 12, 8, 3, 1, 1, 1, false},
        // Batch sizes around the 16-item lane groups.
        Case{1, 2, 8, 8, 6, 5, 1, 2, 1, true}, Case{2, 3, 9, 9, 5, 3, 1, 4, 1, false},
        Case{8, 4, 11, 11, 6, 3, 1, 2, 2, true}, Case{17, 3, 7, 9, 5, 3, 2, 1, 1, true},
        Case{33, 2, 13, 13, 4, 3, 1, 4, 4, false},
        // 1x1 projections and a DeepLab-style dilation.
        Case{16, 24, 6, 6, 24, 3, 1, 2, 2, true}, Case{16, 80, 3, 3, 20, 1, 1, 0, 1, false},
        Case{2, 5, 7, 7, 6, 5, 2, 0, 1, false},
        // Past each 384 split: c*k*k, output channels, output pixels.
        Case{2, 44, 5, 5, 6, 3, 1, 1, 1, true}, Case{2, 3, 4, 4, 390, 3, 1, 1, 1, true},
        Case{3, 2, 20, 20, 5, 3, 1, 1, 1, true}, Case{2, 3, 41, 41, 4, 5, 2, 2, 1, false}),
    [](const ::testing::TestParamInfo<Case>& info) { return Name(info.param); });

// ----------------------------------------------- thread-count invariance

uint64_t HashBytes(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

// A few SGD steps on a small conv stack; prints a hash of the weights. The
// parent test below runs it at two pool widths. Two lane groups and 16
// channels give every kernel of c1 and c2 enough work to split at 4 threads.
TEST(ConvThreadHashChild, EmitWeightsHash) {
  Rng rng(2024);
  Conv2d c1("c1", 3, 16, 3, rng);
  ReLU r1("r1");
  Conv2d c2("c2", 16, 16, 3, rng, /*stride=*/2, /*pad=*/-1, /*dilation=*/1,
            /*bias=*/true);
  ReLU r2("r2");
  Conv2d c3("c3", 16, 8, 1, rng, 1, 0);
  std::vector<Conv2d*> convs{&c1, &c2, &c3};
  Tensor x = Tensor::Randn({32, 3, 12, 12}, rng);
  for (int step = 0; step < 3; ++step) {
    for (Conv2d* c : convs) {
      c->mutable_weight().grad.Zero_();
      if (c->has_bias()) {
        c->mutable_bias().grad.Zero_();
      }
    }
    Tensor y = c3.Forward(r2.Forward(c2.Forward(r1.Forward(c1.Forward(x)))));
    // d(0.5 * |y|^2)/dy = y.
    c1.Backward(r1.Backward(c2.Backward(r2.Backward(c3.Backward(y)))));
    for (Conv2d* c : convs) {
      c->mutable_weight().value.AddScaled_(c->weight().grad, -0.01F);
      if (c->has_bias()) {
        c->mutable_bias().value.AddScaled_(c->bias().grad, -0.01F);
      }
    }
  }
  uint64_t h = 1469598103934665603ULL;
  for (Conv2d* c : convs) {
    h = HashBytes(h, c->weight().value.Data(),
                  static_cast<size_t>(c->weight().value.NumEl()) * sizeof(float));
    if (c->has_bias()) {
      h = HashBytes(h, c->bias().value.Data(),
                    static_cast<size_t>(c->bias().value.NumEl()) * sizeof(float));
    }
  }
  std::printf("CONV_HASH=%016llx\n", static_cast<unsigned long long>(h));
}

// Conv2d's gradients, and so training, must not depend on EGERIA_NUM_THREADS.
// The pool width is fixed per process, so each width runs in a child process
// that re-executes this binary filtered to the test above.
TEST(ConvDeterminism, ThreadCount1And4AgreeBitwise) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    GTEST_SKIP() << "could not resolve /proc/self/exe";
  }
  self[len] = '\0';
  const auto child_hash = [&self](int threads) -> std::string {
    char cmd[4608];
    std::snprintf(cmd, sizeof(cmd),
                  "EGERIA_NUM_THREADS=%d '%s' "
                  "--gtest_filter=ConvThreadHashChild.EmitWeightsHash 2>/dev/null",
                  threads, self);
    FILE* pipe = popen(cmd, "r");
    if (pipe == nullptr) {
      return "";
    }
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
      if (std::strncmp(line, "CONV_HASH=", 10) == 0) {
        hash.assign(line + 10);
        while (!hash.empty() && (hash.back() == '\n' || hash.back() == '\r')) {
          hash.pop_back();
        }
      }
    }
    pclose(pipe);
    return hash;
  };
  const std::string h1 = child_hash(1);
  const std::string h4 = child_hash(4);
  if (h1.empty() || h4.empty()) {
    GTEST_SKIP() << "could not re-exec self to vary EGERIA_NUM_THREADS";
  }
  EXPECT_EQ(h1, h4) << "conv training must be bitwise identical across thread counts";
}

}  // namespace
}  // namespace egeria
