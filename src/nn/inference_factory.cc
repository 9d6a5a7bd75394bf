// Default (float32) InferenceFactory: produces plain deep copies of trainable layers.
// The int8 / fp16 factories in src/quant override these hooks.
#include <memory>

#include "src/nn/conv2d.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/util/rng.h"

namespace egeria {

std::unique_ptr<Module> InferenceFactory::MakeLinear(const Linear& src) const {
  Rng rng(0);  // Weights are overwritten below; init values are irrelevant.
  auto clone = std::make_unique<Linear>(src.name(), src.in_features(), src.out_features(),
                                        rng, src.has_bias());
  clone->mutable_weight().value = src.weight().value.Clone();
  if (src.has_bias()) {
    clone->mutable_bias().value = src.bias().value.Clone();
  }
  clone->SetTraining(false);
  return clone;
}

std::unique_ptr<Module> InferenceFactory::MakeConv2d(const Conv2d& src) const {
  Rng rng(0);
  auto clone = std::make_unique<Conv2d>(src.name(), src.in_channels(), src.out_channels(),
                                        src.geom().kernel_h, rng, src.geom().stride,
                                        src.geom().pad, src.geom().dilation, src.has_bias());
  clone->mutable_weight().value = src.weight().value.Clone();
  if (src.has_bias()) {
    clone->mutable_bias().value = src.bias().value.Clone();
  }
  clone->SetTraining(false);
  return clone;
}

std::unique_ptr<Module> InferenceFactory::MakeDepthwiseConv2d(
    const DepthwiseConv2d& src) const {
  Rng rng(0);
  auto clone = std::make_unique<DepthwiseConv2d>(src.name(), src.channels(),
                                                 src.geom().kernel_h, rng,
                                                 src.geom().stride, src.geom().pad);
  clone->mutable_weight().value = src.weight().value.Clone();
  clone->SetTraining(false);
  return clone;
}

}  // namespace egeria
