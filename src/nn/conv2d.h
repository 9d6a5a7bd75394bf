// 2-d convolution layers (NCHW). Conv2d trains with the direct batch-lane
// kernels of src/tensor/conv.h; DepthwiseConv2d is the per-channel variant used
// by MobileNetV2's inverted residual blocks.
#ifndef EGERIA_SRC_NN_CONV2D_H_
#define EGERIA_SRC_NN_CONV2D_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/conv.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {

class Conv2d : public Module {
 public:
  Conv2d(std::string name, int64_t in_channels, int64_t out_channels, int64_t kernel,
         Rng& rng, int64_t stride = 1, int64_t pad = -1 /* -1 => same for stride 1 */,
         int64_t dilation = 1, bool bias = false);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Parameter*> LocalParams() override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  const ConvGeom& geom() const { return geom_; }
  bool has_bias() const { return has_bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }
  Parameter& mutable_weight() { return weight_; }
  Parameter& mutable_bias() { return bias_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  ConvGeom geom_;
  bool has_bias_;
  Parameter weight_;  // [out_c, in_c*kh*kw], each row in (ci, kh, kw) order
  Parameter bias_;    // [out_c]
  ConvInput cached_input_;  // the last training Forward's input, packed
};

// Depthwise 3x3-style convolution: each channel convolved with its own kernel.
class DepthwiseConv2d : public Module {
 public:
  DepthwiseConv2d(std::string name, int64_t channels, int64_t kernel, Rng& rng,
                  int64_t stride = 1, int64_t pad = -1);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Parameter*> LocalParams() override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

  int64_t channels() const { return channels_; }
  const ConvGeom& geom() const { return geom_; }
  const Parameter& weight() const { return weight_; }
  Parameter& mutable_weight() { return weight_; }

 private:
  int64_t channels_;
  ConvGeom geom_;
  Parameter weight_;  // [c, kh*kw]
  Tensor cached_input_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_NN_CONV2D_H_
