// Direct fp32 2-d convolution for training (NCHW in and out).
//
// Sixteen batch items share one vector: the input is packed once into a
// batch-lane layout with a zero border, where each kernel tap is an address
// offset, so no im2col columns are ever built. The layout is private to
// conv.cc; callers hold a packed input as an opaque `ConvInput`, which
// `Conv2d` caches between Forward and Backward.
//
// Every output element is computed with the operations, in the order, of the
// im2col + `Gemm` lowering it replaces (see src/tensor/README.md,
// "Convolution"), so the results are bitwise identical to it. Threads split
// only independent outputs, so the results do not depend on the thread count.
#ifndef EGERIA_SRC_TENSOR_CONV_H_
#define EGERIA_SRC_TENSOR_CONV_H_

#include <cstdint>
#include <memory>

#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace egeria {

// An input batch [b, c, h, w] packed for one convolution geometry.
class ConvInput {
 public:
  ConvInput() = default;
  ConvInput(const Tensor& input, const ConvGeom& geom);

  bool Defined() const { return lanes_ != nullptr; }
  int64_t batch() const { return batch_; }
  int64_t channels() const { return channels_; }
  int64_t height() const { return height_; }
  int64_t width() const { return width_; }
  const ConvGeom& geom() const { return geom_; }

 private:
  friend Tensor ConvForward(const ConvInput& x, const Tensor& weight,
                            const float* bias);
  friend Tensor ConvBackward(const ConvInput& x, const Tensor& grad_out,
                             const Tensor& weight, float* grad_weight,
                             float* grad_bias);

  std::shared_ptr<float> lanes_;
  int64_t batch_ = 0;
  int64_t channels_ = 0;
  int64_t height_ = 0;
  int64_t width_ = 0;
  ConvGeom geom_;
};

// out [b, oc, oh, ow] = conv(x, weight) (+ bias[oc]); weight is [oc, c*kh*kw]
// in im2col row order (ci, kh, kw). `bias` may be null.
Tensor ConvForward(const ConvInput& x, const Tensor& weight, const float* bias);

// Given dL/dout [b, oc, oh, ow], adds dL/dweight into grad_weight [oc, c*kh*kw]
// and, when grad_bias is not null, dL/dbias into grad_bias [oc]; returns
// dL/dx [b, c, h, w].
Tensor ConvBackward(const ConvInput& x, const Tensor& grad_out, const Tensor& weight,
                    float* grad_weight, float* grad_bias);

}  // namespace egeria

#endif  // EGERIA_SRC_TENSOR_CONV_H_
