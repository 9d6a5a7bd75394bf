// Batch normalization over NCHW feature maps.
//
// Freezing interaction (paper S4.3): when a BatchNorm layer is inside the frozen
// prefix, Egeria switches it to inference mode — "using the dataset statistics to
// normalize the input rather than the specific batch" — so that the layer's output
// depends only on its input and cached activations stay valid. SetFrozen(true) here
// does exactly that; the running statistics stop updating and Forward normalizes with
// them regardless of training mode.
//
// Batch sums: each channel's mean and variance (Forward) and sum(dy) and
// sum(dy * xhat) (Backward) are double chains over the channel's elements, items
// ascending, then pixels, from +0. Up to eight channels run side by side, one
// accumulator lane per channel, so every chain keeps that order and results equal a
// one-channel-at-a-time loop bit for bit. `var += d * d` and
// `sum_dy_xhat += dy * xhat` are written as plain expressions, so they fuse into
// FMAs exactly where the compiler contracts them (any FMA target) and stay a
// multiply and an add elsewhere. tests/batchnorm_test.cc pins this with memcmp
// (src/tensor/README.md, "BatchNorm2d").
#ifndef EGERIA_SRC_NN_BATCHNORM_H_
#define EGERIA_SRC_NN_BATCHNORM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/module.h"

namespace egeria {

class BatchNorm2d : public Module {
 public:
  BatchNorm2d(std::string name, int64_t channels, float momentum = 0.1F,
              float eps = 1e-5F);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Parameter*> LocalParams() override;
  std::vector<std::pair<std::string, Tensor*>> LocalStateTensors() override {
    return {{"running_mean", &running_mean_}, {"running_var", &running_var_}};
  }
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;
  void CopyStateFrom(const Module& other) override;

  int64_t channels() const { return channels_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  bool UseBatchStats() const { return training_ && !frozen_; }

  int64_t channels_;
  float momentum_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // Backward caches, written by training Forwards only.
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // [c], from the batch or the running statistics
  bool used_batch_stats_ = false;
};

}  // namespace egeria

#endif  // EGERIA_SRC_NN_BATCHNORM_H_
