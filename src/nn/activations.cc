#include "src/nn/activations.h"

#include <cmath>

#include "src/util/logging.h"

namespace egeria {

namespace {
constexpr float kGeluC = 0.7978845608028654F;  // sqrt(2/pi)
}  // namespace

Tensor ReLU::Forward(const Tensor& input) {
  if (training_) {
    cached_input_ = input;
  }
  Tensor out = input.Clone();
  float* p = out.Data();
  for (int64_t i = 0; i < out.NumEl(); ++i) {
    if (p[i] < 0.0F) {
      p[i] = 0.0F;
    }
  }
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_input_.Defined(), name_ + ": Backward without Forward");
  EGERIA_CHECK_MSG(grad_output.SameShape(cached_input_),
                   name_ + ": grad_output " + grad_output.ShapeStr() +
                       " does not match the cached training Forward");
  Tensor grad = grad_output.Clone();
  float* g = grad.Data();
  const float* x = cached_input_.Data();
  for (int64_t i = 0; i < grad.NumEl(); ++i) {
    if (x[i] <= 0.0F) {
      g[i] = 0.0F;
    }
  }
  return grad;
}

std::unique_ptr<Module> ReLU::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<ReLU>(name_);
  m->SetTraining(false);
  return m;
}

Tensor ReLU6::Forward(const Tensor& input) {
  if (training_) {
    cached_input_ = input;
  }
  Tensor out = input.Clone();
  float* p = out.Data();
  for (int64_t i = 0; i < out.NumEl(); ++i) {
    if (p[i] < 0.0F) {
      p[i] = 0.0F;
    } else if (p[i] > 6.0F) {
      p[i] = 6.0F;
    }
  }
  return out;
}

Tensor ReLU6::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_input_.Defined(), name_ + ": Backward without Forward");
  EGERIA_CHECK_MSG(grad_output.SameShape(cached_input_),
                   name_ + ": grad_output " + grad_output.ShapeStr() +
                       " does not match the cached training Forward");
  Tensor grad = grad_output.Clone();
  float* g = grad.Data();
  const float* x = cached_input_.Data();
  for (int64_t i = 0; i < grad.NumEl(); ++i) {
    if (x[i] <= 0.0F || x[i] >= 6.0F) {
      g[i] = 0.0F;
    }
  }
  return grad;
}

std::unique_ptr<Module> ReLU6::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<ReLU6>(name_);
  m->SetTraining(false);
  return m;
}

Tensor GeLU::Forward(const Tensor& input) {
  if (training_) {
    cached_input_ = input;
  }
  Tensor out = input.Clone();
  float* p = out.Data();
  for (int64_t i = 0; i < out.NumEl(); ++i) {
    const float x = p[i];
    const float t = std::tanh(kGeluC * (x + 0.044715F * x * x * x));
    p[i] = 0.5F * x * (1.0F + t);
  }
  return out;
}

Tensor GeLU::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_input_.Defined(), name_ + ": Backward without Forward");
  Tensor grad = grad_output.Clone();
  float* g = grad.Data();
  const float* xp = cached_input_.Data();
  for (int64_t i = 0; i < grad.NumEl(); ++i) {
    const float x = xp[i];
    const float u = kGeluC * (x + 0.044715F * x * x * x);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0F + 3.0F * 0.044715F * x * x);
    const float d = 0.5F * (1.0F + t) + 0.5F * x * (1.0F - t * t) * du;
    g[i] *= d;
  }
  return grad;
}

std::unique_ptr<Module> GeLU::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<GeLU>(name_);
  m->SetTraining(false);
  return m;
}

Tensor Sigmoid::Forward(const Tensor& input) {
  Tensor out = input.Clone();
  float* p = out.Data();
  for (int64_t i = 0; i < out.NumEl(); ++i) {
    p[i] = 1.0F / (1.0F + std::exp(-p[i]));
  }
  if (training_) {
    cached_output_ = out;
  }
  return out;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_output_.Defined(), name_ + ": Backward without Forward");
  Tensor grad = grad_output.Clone();
  float* g = grad.Data();
  const float* y = cached_output_.Data();
  for (int64_t i = 0; i < grad.NumEl(); ++i) {
    g[i] *= y[i] * (1.0F - y[i]);
  }
  return grad;
}

std::unique_ptr<Module> Sigmoid::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<Sigmoid>(name_);
  m->SetTraining(false);
  return m;
}

Tensor Tanh::Forward(const Tensor& input) {
  Tensor out = input.Clone();
  float* p = out.Data();
  for (int64_t i = 0; i < out.NumEl(); ++i) {
    p[i] = std::tanh(p[i]);
  }
  if (training_) {
    cached_output_ = out;
  }
  return out;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_output_.Defined(), name_ + ": Backward without Forward");
  Tensor grad = grad_output.Clone();
  float* g = grad.Data();
  const float* y = cached_output_.Data();
  for (int64_t i = 0; i < grad.NumEl(); ++i) {
    g[i] *= 1.0F - y[i] * y[i];
  }
  return grad;
}

std::unique_ptr<Module> Tanh::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto m = std::make_unique<Tanh>(name_);
  m->SetTraining(false);
  return m;
}

}  // namespace egeria
