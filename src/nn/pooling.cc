#include "src/nn/pooling.h"

#include "src/tensor/tensor_ops.h"
#include "src/util/logging.h"

namespace egeria {

MaxPool2d::MaxPool2d(std::string name, int64_t kernel, int64_t stride)
    : Module(std::move(name)), kernel_(kernel), stride_(stride) {}

Tensor MaxPool2d::Forward(const Tensor& input) {
  in_h_ = input.Size(2);
  in_w_ = input.Size(3);
  auto [out, argmax] = MaxPool2dForward(input, kernel_, stride_);
  if (training_) {
    cached_argmax_ = argmax;
  }
  return out;
}

Tensor MaxPool2d::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_argmax_.Defined(), name_ + ": Backward without Forward");
  return MaxPool2dBackward(grad_output, cached_argmax_, in_h_, in_w_);
}

std::unique_ptr<Module> MaxPool2d::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<MaxPool2d>(name_, kernel_, stride_);
  m->SetTraining(false);
  return m;
}

AvgPool2d::AvgPool2d(std::string name, int64_t kernel, int64_t stride)
    : Module(std::move(name)), kernel_(kernel), stride_(stride) {}

Tensor AvgPool2d::Forward(const Tensor& input) {
  in_h_ = input.Size(2);
  in_w_ = input.Size(3);
  return AvgPool2dForward(input, kernel_, stride_);
}

Tensor AvgPool2d::Backward(const Tensor& grad_output) {
  return AvgPool2dBackward(grad_output, kernel_, stride_, in_h_, in_w_);
}

std::unique_ptr<Module> AvgPool2d::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<AvgPool2d>(name_, kernel_, stride_);
  m->SetTraining(false);
  return m;
}

Tensor GlobalAvgPool::Forward(const Tensor& input) {
  in_h_ = input.Size(2);
  in_w_ = input.Size(3);
  return GlobalAvgPoolForward(input);
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_output) {
  return GlobalAvgPoolBackward(grad_output, in_h_, in_w_);
}

std::unique_ptr<Module> GlobalAvgPool::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<GlobalAvgPool>(name_);
  m->SetTraining(false);
  return m;
}

Upsample::Upsample(std::string name, int64_t out_h, int64_t out_w)
    : Module(std::move(name)), out_h_(out_h), out_w_(out_w) {}

Tensor Upsample::Forward(const Tensor& input) {
  in_h_ = input.Size(2);
  in_w_ = input.Size(3);
  return BilinearUpsampleForward(input, out_h_, out_w_);
}

Tensor Upsample::Backward(const Tensor& grad_output) {
  return BilinearUpsampleBackward(grad_output, in_h_, in_w_);
}

std::unique_ptr<Module> Upsample::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<Upsample>(name_, out_h_, out_w_);
  m->SetTraining(false);
  return m;
}

}  // namespace egeria
