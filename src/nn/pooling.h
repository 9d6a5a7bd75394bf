// Pooling modules (max / average / global-average) over NCHW maps, plus a
// bilinear Upsample module (DeepLab head).
#ifndef EGERIA_SRC_NN_POOLING_H_
#define EGERIA_SRC_NN_POOLING_H_

#include <memory>
#include <string>

#include "src/nn/module.h"

namespace egeria {

class MaxPool2d : public Module {
 public:
  MaxPool2d(std::string name, int64_t kernel, int64_t stride);
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

 private:
  int64_t kernel_;
  int64_t stride_;
  Tensor cached_argmax_;
  int64_t in_h_ = 0;
  int64_t in_w_ = 0;
};

class AvgPool2d : public Module {
 public:
  AvgPool2d(std::string name, int64_t kernel, int64_t stride);
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

 private:
  int64_t kernel_;
  int64_t stride_;
  int64_t in_h_ = 0;
  int64_t in_w_ = 0;
};

// [b,c,h,w] -> [b,c].
class GlobalAvgPool : public Module {
 public:
  explicit GlobalAvgPool(std::string name) : Module(std::move(name)) {}
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

 private:
  int64_t in_h_ = 0;
  int64_t in_w_ = 0;
};

// Bilinear upsample to a fixed output size.
class Upsample : public Module {
 public:
  Upsample(std::string name, int64_t out_h, int64_t out_w);
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

 private:
  int64_t out_h_;
  int64_t out_w_;
  int64_t in_h_ = 0;
  int64_t in_w_ = 0;
};

}  // namespace egeria

#endif  // EGERIA_SRC_NN_POOLING_H_
