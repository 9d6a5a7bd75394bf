#include "src/nn/batchnorm.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/util/logging.h"

namespace egeria {
namespace {

// Channels whose batch sums run side by side, one double accumulator lane per
// channel: eight independent chains keep the adders busy where a single chain
// waits out each add's latency. A group of at most four channels runs four
// lanes rather than eight, half of them discarded.
constexpr int64_t kMaxLanes = 8;

// Offset of each lane's plane from the group's first plane. Lanes past the
// group's `n` channels repeat its last channel; their sums are discarded.
template <int kLanes>
std::array<int64_t, kLanes> LaneOffsets(int64_t n, int64_t hw) {
  std::array<int64_t, kLanes> off = {};
  for (int l = 0; l < kLanes; ++l) {
    off[l] = std::min<int64_t>(l, n - 1) * hw;
  }
  return off;
}

// Batch mean and variance of channels [c0, c0 + n). Each lane adds its
// channel's elements as a per-channel loop would: items ascending, then
// pixels, from +0; the variance is a second pass in the same order.
template <int kLanes>
void GroupMoments(const float* x, int64_t b, int64_t channels, int64_t hw, int64_t c0,
                  int64_t n, double* means, double* vars) {
  const std::array<int64_t, kLanes> off = LaneOffsets<kLanes>(n, hw);
  const double count = static_cast<double>(b * hw);
  double mean[kLanes] = {};
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* plane = x + (bi * channels + c0) * hw;
    for (int64_t i = 0; i < hw; ++i) {
      for (int l = 0; l < kLanes; ++l) {
        mean[l] += plane[off[l] + i];
      }
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    mean[l] /= count;
  }
  double var[kLanes] = {};
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* plane = x + (bi * channels + c0) * hw;
    for (int64_t i = 0; i < hw; ++i) {
      for (int l = 0; l < kLanes; ++l) {
        const double d = plane[off[l] + i] - mean[l];
        var[l] += d * d;
      }
    }
  }
  for (int64_t l = 0; l < n; ++l) {
    means[l] = mean[l];
    vars[l] = var[l] / count;
  }
}

// sum(dy) and sum(dy * xhat) of channels [c0, c0 + n), in GroupMoments' order.
template <int kLanes>
void GroupGradSums(const float* dy, const float* xhat, int64_t b, int64_t channels,
                   int64_t hw, int64_t c0, int64_t n, double* sums_dy,
                   double* sums_dy_xhat) {
  const std::array<int64_t, kLanes> off = LaneOffsets<kLanes>(n, hw);
  double sum_dy[kLanes] = {};
  double sum_dy_xhat[kLanes] = {};
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* dyp = dy + (bi * channels + c0) * hw;
    const float* xhp = xhat + (bi * channels + c0) * hw;
    for (int64_t i = 0; i < hw; ++i) {
      for (int l = 0; l < kLanes; ++l) {
        sum_dy[l] += dyp[off[l] + i];
        sum_dy_xhat[l] += static_cast<double>(dyp[off[l] + i]) * xhp[off[l] + i];
      }
    }
  }
  for (int64_t l = 0; l < n; ++l) {
    sums_dy[l] = sum_dy[l];
    sums_dy_xhat[l] = sum_dy_xhat[l];
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::string name, int64_t channels, float momentum, float eps)
    : Module(std::move(name)), channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_ = Parameter(name_ + ".gamma", Tensor::Ones({channels}));
  beta_ = Parameter(name_ + ".beta", Tensor::Zeros({channels}));
  running_mean_ = Tensor::Zeros({channels});
  running_var_ = Tensor::Ones({channels});
}

Tensor BatchNorm2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4 && input.Size(1) == channels_);
  const int64_t b = input.Size(0);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t hw = h * w;

  // Only a training Forward replaces the Backward caches: an eval-mode
  // Forward (validation, a frozen prefix's reference) leaves them alone.
  Tensor out = Tensor::Uninitialized(input.Shape());
  Tensor inv_stds = Tensor::Uninitialized({channels_});
  if (UseBatchStats()) {
    Tensor xhats = Tensor::Uninitialized(input.Shape());
    for (int64_t c0 = 0; c0 < channels_; c0 += kMaxLanes) {
      const int64_t n = std::min(kMaxLanes, channels_ - c0);
      double means[kMaxLanes] = {};
      double vars[kMaxLanes] = {};
      if (n > 4) {
        GroupMoments<8>(input.Data(), b, channels_, hw, c0, n, means, vars);
      } else {
        GroupMoments<4>(input.Data(), b, channels_, hw, c0, n, means, vars);
      }
      for (int64_t l = 0; l < n; ++l) {
        const int64_t c = c0 + l;
        const double mean = means[l];
        const double var = vars[l];
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
    }
    cached_xhat_ = xhats;
    cached_inv_std_ = inv_stds;
    used_batch_stats_ = true;
  } else {
    // Inference / frozen path: running statistics. Output is a pure function of the
    // input, which makes frozen-prefix activations cacheable.
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
      // xhat is still needed if Backward gets called on a running-stats forward.
      cached_xhat_ = Tensor::Uninitialized(input.Shape());
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

Tensor BatchNorm2d::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_xhat_.Defined(), name_ + ": Backward without Forward");
  EGERIA_CHECK_MSG(grad_output.SameShape(cached_xhat_),
                   name_ + ": grad_output " + grad_output.ShapeStr() +
                       " does not match the cached training Forward");
  const int64_t b = cached_xhat_.Size(0);
  const int64_t hw = cached_xhat_.Size(2) * cached_xhat_.Size(3);
  const int64_t count = b * hw;
  Tensor grad_in = Tensor::Uninitialized(grad_output.Shape());

  for (int64_t c0 = 0; c0 < channels_; c0 += kMaxLanes) {
    const int64_t n = std::min(kMaxLanes, channels_ - c0);
    double sums_dy[kMaxLanes] = {};
    double sums_dy_xhat[kMaxLanes] = {};
    if (n > 4) {
      GroupGradSums<8>(grad_output.Data(), cached_xhat_.Data(), b, channels_, hw, c0, n,
                       sums_dy, sums_dy_xhat);
    } else {
      GroupGradSums<4>(grad_output.Data(), cached_xhat_.Data(), b, channels_, hw, c0, n,
                       sums_dy, sums_dy_xhat);
    }
    for (int64_t l = 0; l < n; ++l) {
      const int64_t c = c0 + l;
      const float inv_std = cached_inv_std_.At(c);
      const float g = gamma_.value.At(c);
      const double sum_dy = sums_dy[l];
      const double sum_dy_xhat = sums_dy_xhat[l];
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
        // Running-stats path: the normalization constants are independent of the batch,
        // so the layer is a per-channel affine map.
        for (int64_t bi = 0; bi < b; ++bi) {
          const float* dy = grad_output.Data() + (bi * channels_ + c) * hw;
          float* dx = grad_in.Data() + (bi * channels_ + c) * hw;
          for (int64_t i = 0; i < hw; ++i) {
            dx[i] = g * inv_std * dy[i];
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> BatchNorm2d::LocalParams() { return {&gamma_, &beta_}; }

std::unique_ptr<Module> BatchNorm2d::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;  // BatchNorm stays float in every reference precision.
  auto clone = std::make_unique<BatchNorm2d>(name_, channels_, momentum_, eps_);
  clone->gamma_.value = gamma_.value.Clone();
  clone->beta_.value = beta_.value.Clone();
  clone->running_mean_ = running_mean_.Clone();
  clone->running_var_ = running_var_.Clone();
  clone->SetTraining(false);
  return clone;
}

void BatchNorm2d::CopyStateFrom(const Module& other) {
  const auto* src = dynamic_cast<const BatchNorm2d*>(&other);
  EGERIA_CHECK_MSG(src != nullptr, name_ + ": CopyStateFrom type mismatch");
  gamma_.value = src->gamma_.value.Clone();
  beta_.value = src->beta_.value.Clone();
  running_mean_ = src->running_mean_.Clone();
  running_var_ = src->running_var_.Clone();
}

}  // namespace egeria
