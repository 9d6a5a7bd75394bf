// Pins BatchNorm2d's batch sums (src/nn/batchnorm.cc), which run up to eight
// channels side by side, bit for bit against the per-channel loops they
// replaced.
//
// The reference below is BatchNorm2d's Forward and Backward as they were
// before the lane groups, copied verbatim: one channel at a time, each sum a
// single chain of double adds over items, then pixels. Compiled in this file
// with the library's flags, it gets the same FMA contraction as the library
// (`var += d * d` fuses where the target has FMA), so the comparison holds
// on native and portable builds alike.
//
// The sums are double and every result is float, so ordinary data would
// hide a reordered chain. The inputs are built so that each chain's order
// shows: cancelling pairs for the mean, sum(dy) and sum(dy * xhat), and
// rounding ties for the variance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/batchnorm.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

struct ReferenceBatchNorm {
  explicit ReferenceBatchNorm(int64_t channels) : channels_(channels) {
    gamma_ = Parameter("gamma", Tensor::Ones({channels}));
    beta_ = Parameter("beta", Tensor::Zeros({channels}));
    running_mean_ = Tensor::Zeros({channels});
    running_var_ = Tensor::Ones({channels});
  }
  bool UseBatchStats() const { return training_ && !frozen_; }
  Tensor Forward(const Tensor& input);
  Tensor Backward(const Tensor& grad_output);

  int64_t channels_;
  float momentum_ = 0.1F;
  float eps_ = 1e-5F;
  bool training_ = true;
  bool frozen_ = false;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;
  Tensor cached_xhat_;
  Tensor cached_inv_std_;
  bool used_batch_stats_ = false;
};

Tensor ReferenceBatchNorm::Forward(const Tensor& input) {
  const int64_t b = input.Size(0);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t hw = h * w;
  const int64_t count = b * hw;

  Tensor out(input.Shape());
  Tensor inv_stds({channels_});
  if (UseBatchStats()) {
    Tensor xhats(input.Shape());
    for (int64_t c = 0; c < channels_; ++c) {
      double mean = 0.0;
      for (int64_t bi = 0; bi < b; ++bi) {
        const float* plane = input.Data() + (bi * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          mean += plane[i];
        }
      }
      mean /= static_cast<double>(count);
      double var = 0.0;
      for (int64_t bi = 0; bi < b; ++bi) {
        const float* plane = input.Data() + (bi * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          const double d = plane[i] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(count);
      const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + eps_);
      inv_stds.At(c) = inv_std;
      running_mean_.At(c) =
          (1.0F - momentum_) * running_mean_.At(c) + momentum_ * static_cast<float>(mean);
      running_var_.At(c) =
          (1.0F - momentum_) * running_var_.At(c) + momentum_ * static_cast<float>(var);
      const float g = gamma_.value.At(c);
      const float bt = beta_.value.At(c);
      for (int64_t bi = 0; bi < b; ++bi) {
        const float* plane = input.Data() + (bi * channels_ + c) * hw;
        float* xh = xhats.Data() + (bi * channels_ + c) * hw;
        float* op = out.Data() + (bi * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          const float xhat = (plane[i] - static_cast<float>(mean)) * inv_std;
          xh[i] = xhat;
          op[i] = g * xhat + bt;
        }
      }
    }
    cached_xhat_ = xhats;
    cached_inv_std_ = inv_stds;
    used_batch_stats_ = true;
  } else {
    for (int64_t c = 0; c < channels_; ++c) {
      const float mean = running_mean_.At(c);
      const float inv_std = 1.0F / std::sqrt(running_var_.At(c) + eps_);
      inv_stds.At(c) = inv_std;
      const float g = gamma_.value.At(c);
      const float bt = beta_.value.At(c);
      for (int64_t bi = 0; bi < b; ++bi) {
        const float* plane = input.Data() + (bi * channels_ + c) * hw;
        float* op = out.Data() + (bi * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          op[i] = g * (plane[i] - mean) * inv_std + bt;
        }
      }
    }
    if (training_) {
      cached_xhat_ = Tensor(input.Shape());
      for (int64_t c = 0; c < channels_; ++c) {
        const float mean = running_mean_.At(c);
        const float inv_std = inv_stds.At(c);
        for (int64_t bi = 0; bi < b; ++bi) {
          const float* plane = input.Data() + (bi * channels_ + c) * hw;
          float* xh = cached_xhat_.Data() + (bi * channels_ + c) * hw;
          for (int64_t i = 0; i < hw; ++i) {
            xh[i] = (plane[i] - mean) * inv_std;
          }
        }
      }
      cached_inv_std_ = inv_stds;
      used_batch_stats_ = false;
    }
  }
  return out;
}

Tensor ReferenceBatchNorm::Backward(const Tensor& grad_output) {
  const int64_t b = cached_xhat_.Size(0);
  const int64_t hw = cached_xhat_.Size(2) * cached_xhat_.Size(3);
  const int64_t count = b * hw;
  Tensor grad_in(grad_output.Shape());

  for (int64_t c = 0; c < channels_; ++c) {
    const float inv_std = cached_inv_std_.At(c);
    const float g = gamma_.value.At(c);
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (int64_t bi = 0; bi < b; ++bi) {
      const float* dy = grad_output.Data() + (bi * channels_ + c) * hw;
      const float* xh = cached_xhat_.Data() + (bi * channels_ + c) * hw;
      for (int64_t i = 0; i < hw; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    gamma_.grad.At(c) += static_cast<float>(sum_dy_xhat);
    beta_.grad.At(c) += static_cast<float>(sum_dy);

    if (used_batch_stats_) {
      const float mean_dy = static_cast<float>(sum_dy / count);
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
      for (int64_t bi = 0; bi < b; ++bi) {
        const float* dy = grad_output.Data() + (bi * channels_ + c) * hw;
        const float* xh = cached_xhat_.Data() + (bi * channels_ + c) * hw;
        float* dx = grad_in.Data() + (bi * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          dx[i] = g * inv_std * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
        }
      }
    } else {
      for (int64_t bi = 0; bi < b; ++bi) {
        const float* dy = grad_output.Data() + (bi * channels_ + c) * hw;
        float* dx = grad_in.Data() + (bi * channels_ + c) * hw;
        for (int64_t i = 0; i < hw; ++i) {
          dx[i] = g * inv_std * dy[i];
        }
      }
    }
  }
  return grad_in;
}

enum class Mode { kTraining, kFrozenTraining, kEval };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kTraining:
      return "training";
    case Mode::kFrozenTraining:
      return "frozen";
    case Mode::kEval:
      return "eval";
  }
  return "?";
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.Data(), b.Data(), sizeof(float) * a.NumEl()) == 0;
}

// Fills one channel's n inputs x and output gradients dy, in the order
// BatchNorm2d sums them: items, then pixels.
using ChannelFill = void (*)(int64_t n, Rng& rng, float* x, float* dy);

// x is 3 + 1.5 g (g standard normal): away from zero, like a post-ReLU map,
// and dy is g. Floats like these almost always add up exactly in double,
// whatever the order, so on such data alone a reordered sum would almost
// never change a float result. A channel of eight or more values therefore
// also gets two pairs of exact opposites, 2^40 or more in size: x at n/4 and
// 3n/4, dy at n/8 and 7n/8. A running double sum that passes through 2^40
// rounds away the low bits of every value added until the pair cancels, so
// the order of the mean, of sum(dy) and of sum(dy * xhat) shows in their
// float results. The pairs' dy * xhat terms cancel too: dy is equal at the
// x pair, whose xhat are opposite, and x is equal at the dy pair.
void FillWithCancellingPairs(int64_t n, Rng& rng, float* x, float* dy) {
  for (int64_t j = 0; j < n; ++j) {
    x[j] = 3.0F + 1.5F * rng.NextGaussian();
    dy[j] = rng.NextGaussian();
  }
  if (n >= 8) {
    const float big = std::ldexp(1.0F + rng.NextFloat(), 40);
    x[n / 4] = big;
    x[3 * n / 4] = -big;
    dy[3 * n / 4] = dy[n / 4];
    dy[n / 8] = big;
    dy[7 * n / 8] = -big;
    x[7 * n / 8] = x[n / 8];
  }
}

// The variance is a sum of squares, and reordering one moves it by about
// 2^-53 of itself: on ordinary data that almost never changes the float it
// rounds to. So for n = 2^p >= 128 this picks x = 3 + k * 2^-22 with integer
// k such that the exact batch variance lies 2^-(2p + 42) below the midpoint
// between two adjacent floats. The float variance then rounds up or down
// with the sign of the chain's accumulated rounding error, which depends on
// the order of its adds and on which multiply-adds are fused. The k come as
// pairs +a, -a (most with a in [2^21, 2^22), a few that bring sum(k^2) to
// the midpoint) and one k = 2. That one moves the mean 2^-(p + 21) off 3, so
// the deviations x - mean have bits down to 2^-(p + 21) and most of their
// squares round. dy is standard normal.
void FillWithTiedVariance(int64_t n, Rng& rng, float* x, float* dy) {
  ASSERT_TRUE(n >= 128 && (n & (n - 1)) == 0) << n;
  std::vector<int64_t> k(n, 0);
  int64_t sum_sq = 0;  // sum(k^2) < 2^44 * n
  int64_t target = 0;  // the midpoint, in units of 2^-44 / n
  int64_t j = 0;
  do {
    k[0] = 2;
    sum_sq = 4;
    for (j = 1; j + 1 < n - 64; j += 2) {
      const int64_t a = (int64_t{1} << 21) + static_cast<int64_t>(rng.NextBelow(1 << 21));
      k[j] = a;
      k[j + 1] = -a;
      sum_sq += 2 * a * a;
    }
    // Floats in sum_sq's binade [2^e, 2^(e+1)) are 2^(e-23) apart; the
    // midpoints are the odd multiples of 2^(e-24).
    int e = 0;
    while ((sum_sq >> (e + 1)) != 0) {
      ++e;
    }
    int64_t odd = (sum_sq >> (e - 24)) + 1;
    odd += 1 - (odd & 1);
    target = odd << (e - 24);
    if (odd < (int64_t{1} << 25)) {
      break;  // the midpoint is inside the binade (fails about once in 2^23)
    }
  } while (true);
  // Greedy squares: each pair adds 2 a^2, and the remainder shrinks to about
  // its square root each time.
  for (int64_t r = (target - sum_sq) / 2; r > 0; j += 2) {
    int64_t a = static_cast<int64_t>(std::sqrt(static_cast<double>(r)));
    while (a * a > r) {
      --a;
    }
    while ((a + 1) * (a + 1) <= r) {
      ++a;
    }
    ASSERT_LT(j + 1, n);
    k[j] = a;
    k[j + 1] = -a;
    r -= a * a;
  }
  rng.Shuffle(k);
  for (int64_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(3.0 + std::ldexp(static_cast<double>(k[i]), -22));
    dy[i] = rng.NextGaussian();
  }
}

// Fills x and dy of shape [b, c, h, w] channel by channel.
void FillBatch(ChannelFill fill, Rng& rng, Tensor& x, Tensor& dy) {
  const int64_t b = x.Size(0);
  const int64_t c = x.Size(1);
  const int64_t hw = x.Size(2) * x.Size(3);
  std::vector<float> xs(b * hw);
  std::vector<float> dys(b * hw);
  for (int64_t ch = 0; ch < c; ++ch) {
    fill(b * hw, rng, xs.data(), dys.data());
    for (int64_t bi = 0; bi < b; ++bi) {
      std::memcpy(x.Data() + (bi * c + ch) * hw, xs.data() + bi * hw, sizeof(float) * hw);
      std::memcpy(dy.Data() + (bi * c + ch) * hw, dys.data() + bi * hw,
                  sizeof(float) * hw);
    }
  }
}

// Runs three consecutive steps of one shape in one mode on BatchNorm2d and on
// the reference from the same parameters and running statistics, and returns
// the steps whose output, running statistics, input gradient or parameter
// gradients differ in any bit. Gradients accumulate across the steps.
std::vector<std::string> MismatchedSteps(int64_t b, int64_t c, int64_t h, int64_t w,
                                         Mode mode, ChannelFill fill) {
  char label[96];
  std::snprintf(label, sizeof(label), "b%lld_c%lld_%lldx%lld_%s",
                static_cast<long long>(b), static_cast<long long>(c),
                static_cast<long long>(h), static_cast<long long>(w), ModeName(mode));
  Rng rng(static_cast<uint64_t>(((b * 64 + c) * 16 + h) * 16 + w));
  BatchNorm2d bn("bn", c);
  ReferenceBatchNorm ref(c);
  std::vector<Parameter*> params = bn.LocalParams();
  std::vector<std::pair<std::string, Tensor*>> stats = bn.LocalStateTensors();
  Tensor* targets[] = {&params[0]->value, &params[1]->value, stats[0].second,
                       stats[1].second};
  Tensor* mirrors[] = {&ref.gamma_.value, &ref.beta_.value, &ref.running_mean_,
                       &ref.running_var_};
  const float lo[] = {0.5F, -0.5F, 2.0F, 0.5F};
  const float hi[] = {1.5F, 0.5F, 4.0F, 3.0F};
  for (int k = 0; k < 4; ++k) {
    for (int64_t i = 0; i < c; ++i) {
      const float v = rng.NextUniform(lo[k], hi[k]);
      targets[k]->Data()[i] = v;
      mirrors[k]->Data()[i] = v;
    }
  }
  bn.SetTraining(mode != Mode::kEval);
  bn.SetFrozen(mode == Mode::kFrozenTraining);
  ref.training_ = mode != Mode::kEval;
  ref.frozen_ = mode == Mode::kFrozenTraining;

  std::vector<std::string> mismatches;
  for (int step = 0; step < 3; ++step) {
    Tensor x = Tensor::Uninitialized({b, c, h, w});
    Tensor dy = Tensor::Uninitialized({b, c, h, w});
    FillBatch(fill, rng, x, dy);
    std::string what;
    if (!SameBits(bn.Forward(x), ref.Forward(x))) {
      what += " output";
    }
    if (!SameBits(bn.running_mean(), ref.running_mean_) ||
        !SameBits(bn.running_var(), ref.running_var_)) {
      what += " running_stats";
    }
    if (mode != Mode::kEval) {
      if (!SameBits(bn.Backward(dy), ref.Backward(dy))) {
        what += " grad_in";
      }
      if (!SameBits(params[0]->grad, ref.gamma_.grad) ||
          !SameBits(params[1]->grad, ref.beta_.grad)) {
        what += " param_grads";
      }
    }
    if (!what.empty()) {
      mismatches.push_back(std::string(label) + " step " + std::to_string(step) + ":" +
                           what);
    }
  }
  return mismatches;
}

void ExpectNoMismatches(const std::vector<std::string>& mismatches, int steps) {
  std::string first;
  for (size_t i = 0; i < mismatches.size() && i < 10; ++i) {
    first += "\n  " + mismatches[i];
  }
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " of " << steps << " steps differ; first:" << first;
  std::printf("%d of %d steps bit-identical\n", steps - static_cast<int>(mismatches.size()),
              steps);
}

TEST(BatchNorm2d, LaneGroupSumsMatchPerChannelLoopsBitwise) {
  const int64_t batches[] = {1, 2, 16, 17};
  const int64_t channels[] = {1, 3, 4, 7, 8, 9, 16, 17, 32};
  // The four square sizes are the presets' feature maps; 2x5 is not square.
  const int64_t sizes[][2] = {{1, 1}, {3, 3}, {6, 6}, {12, 12}, {2, 5}};
  const Mode modes[] = {Mode::kTraining, Mode::kFrozenTraining, Mode::kEval};
  int steps = 0;
  std::vector<std::string> mismatches;
  for (const int64_t b : batches) {
    for (const int64_t c : channels) {
      for (const auto& hw : sizes) {
        for (const Mode mode : modes) {
          for (std::string& m :
               MismatchedSteps(b, c, hw[0], hw[1], mode, FillWithCancellingPairs)) {
            mismatches.push_back(std::move(m));
          }
          steps += 3;
        }
      }
    }
  }
  ExpectNoMismatches(mismatches, steps);
}

TEST(BatchNorm2d, VarianceChainMatchesAtRoundingTies) {
  // 2048 values per channel: a power of two, so that dividing the sum of
  // squares by the count is exact.
  const int64_t shapes[][3] = {{16, 8, 16}, {32, 8, 8}, {128, 4, 4}};
  const int64_t channels[] = {3, 4, 8, 9, 17};
  int steps = 0;
  std::vector<std::string> mismatches;
  for (const auto& shape : shapes) {
    for (const int64_t c : channels) {
      for (std::string& m : MismatchedSteps(shape[0], c, shape[1], shape[2],
                                            Mode::kTraining, FillWithTiedVariance)) {
        mismatches.push_back(std::move(m));
      }
      steps += 3;
    }
  }
  ExpectNoMismatches(mismatches, steps);
}

}  // namespace
}  // namespace egeria
