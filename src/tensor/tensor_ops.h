// Compute kernels shared by the NN layers and quantized inference.
//
// All matrices are row-major. Every matmul routes through the packed, blocked,
// multithreaded Gemm dispatch in src/tensor/gemm.h (layers call it directly for
// per-sample matmuls on subranges of batched tensors without materializing
// slices). Training convolutions run the direct kernels of src/tensor/conv.h;
// the fp16 and int8 reference convolutions lower to Im2Col + GEMM.
#ifndef EGERIA_SRC_TENSOR_TENSOR_OPS_H_
#define EGERIA_SRC_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <utility>

#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace egeria {

// C[m,n] = A[m,k] * B[k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// C[m,n] = A[k,m]^T * B[k,n].
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
// C[m,n] = A[m,k] * B[n,k]^T.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

// Batched: C[b,m,n] = A[b,m,k] * B[b,k,n] (optionally transposing B's last two dims).
Tensor BatchedMatMul(const Tensor& a, const Tensor& b, bool trans_b = false);
// C[b,m,n] = A[b,k,m]^T * B[b,k,n].
Tensor BatchedMatMulTransA(const Tensor& a, const Tensor& b);

// Geometry of a 2-d convolution / pooling window.
struct ConvGeom {
  int64_t kernel_h = 3;
  int64_t kernel_w = 3;
  int64_t stride = 1;
  int64_t pad = 1;
  int64_t dilation = 1;

  int64_t OutH(int64_t h) const {
    return (h + 2 * pad - dilation * (kernel_h - 1) - 1) / stride + 1;
  }
  int64_t OutW(int64_t w) const {
    return (w + 2 * pad - dilation * (kernel_w - 1) - 1) / stride + 1;
  }
};

// input [b,c,h,w] -> columns [b, c*kh*kw, oh*ow].
Tensor Im2Col(const Tensor& input, const ConvGeom& geom);
// Single-item int8 im2col for the quantized conv path: gathers one image
// [c,h,w] into columns [c*kh*kw, oh*ow] with zero padding (code 0). Operating
// on pre-quantized bytes moves 4x less data than the float gather and lets the
// activation quantization run once over the image instead of once per im2col
// element (quantization commutes with the rearrangement, so results are
// identical).
void Im2ColItemI8(const int8_t* img, int64_t c, int64_t h, int64_t w,
                  const ConvGeom& geom, int8_t* out);

// Max pooling. Returns output and the flat argmax index per output element (into the
// input's h*w plane), which MaxPool2dBackward consumes.
std::pair<Tensor, Tensor> MaxPool2dForward(const Tensor& input, int64_t kernel,
                                           int64_t stride);
Tensor MaxPool2dBackward(const Tensor& grad_out, const Tensor& argmax, int64_t in_h,
                         int64_t in_w);

Tensor AvgPool2dForward(const Tensor& input, int64_t kernel, int64_t stride);
Tensor AvgPool2dBackward(const Tensor& grad_out, int64_t kernel, int64_t stride,
                         int64_t in_h, int64_t in_w);

// Global average pooling: [b,c,h,w] -> [b,c].
Tensor GlobalAvgPoolForward(const Tensor& input);
Tensor GlobalAvgPoolBackward(const Tensor& grad_out, int64_t h, int64_t w);

// Softmax / LogSoftmax along the last dimension.
Tensor Softmax(const Tensor& logits);
Tensor LogSoftmax(const Tensor& logits);

// [m,n] -> [n,m].
Tensor Transpose2d(const Tensor& a);

// [b,t,h,d] -> [b,h,t,d] and back (attention head split/merge).
Tensor SwapAxes12(const Tensor& a);

// Bilinear resize of [b,c,h,w] to (out_h, out_w) with align_corners=false semantics.
Tensor BilinearUpsampleForward(const Tensor& input, int64_t out_h, int64_t out_w);
Tensor BilinearUpsampleBackward(const Tensor& grad_out, int64_t in_h, int64_t in_w);

// Concatenate along channel dim: inputs all [b,ci,h,w] -> [b,sum(ci),h,w].
Tensor ConcatChannels(const std::vector<Tensor>& inputs);
// Split gradient of ConcatChannels back into per-input gradients.
std::vector<Tensor> SplitChannels(const Tensor& grad, const std::vector<int64_t>& channels);

}  // namespace egeria

#endif  // EGERIA_SRC_TENSOR_TENSOR_OPS_H_
