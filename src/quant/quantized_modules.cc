#include "src/quant/quantized_modules.h"

#include "src/tensor/compute_pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/logging.h"

namespace egeria {

float ActivationQuantizer::Scale(const float* x, int64_t n) {
  if (mode_ == QuantMode::kDynamic) {
    return ActivationScale(x, n);
  }
  if (calibration_left_ > 0) {
    observer_.Observe(x, n);
    --calibration_left_;
  }
  return observer_.Scale();
}

QuantLinear::QuantLinear(const Linear& src, QuantMode mode)
    : Module(src.name() + ".int8"),
      in_features_(src.in_features()),
      out_features_(src.out_features()),
      weights_(QuantizeWeightsPerChannel(src.weight().value)),
      quantizer_(mode) {
  if (src.has_bias()) {
    bias_ = src.bias().value.Clone();
  }
  training_ = false;
}

Tensor QuantLinear::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Size(-1) == in_features_);
  const int64_t rows = input.NumEl() / in_features_;
  std::vector<int8_t> xq(static_cast<size_t>(rows * in_features_));
  const float scale = quantizer_.Scale(input.Data(), input.NumEl());
  QuantizeActivations(input.Data(), xq.data(), input.NumEl(), scale);
  std::vector<int64_t> out_shape = input.Shape();
  out_shape.back() = out_features_;
  Tensor out = Tensor::Uninitialized(out_shape);
  Int8GemmTransB(xq.data(), scale, weights_, bias_.Defined() ? bias_.Data() : nullptr,
                 out.Data(), rows);
  return out;
}

Tensor QuantLinear::Backward(const Tensor&) {
  EGERIA_CHECK_MSG(false, name_ + ": quantized modules are inference-only");
  return Tensor();
}

std::unique_ptr<Module> QuantLinear::CloneForInference(const InferenceFactory&) const {
  EGERIA_CHECK_MSG(false, name_ + ": cannot re-clone a quantized module");
  return nullptr;
}

QuantConv2d::QuantConv2d(const Conv2d& src, QuantMode mode)
    : Module(src.name() + ".int8"),
      in_channels_(src.in_channels()),
      out_channels_(src.out_channels()),
      geom_(src.geom()),
      weights_(QuantizeWeightsPerChannel(src.weight().value)),
      quantizer_(mode) {
  if (src.has_bias()) {
    bias_ = src.bias().value.Clone();
  }
  training_ = false;
}

Tensor QuantConv2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4 && input.Size(1) == in_channels_);
  const int64_t b = input.Size(0);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t oh = geom_.OutH(h);
  const int64_t ow = geom_.OutW(w);
  const int64_t ohow = oh * ow;
  const int64_t chw = in_channels_ * h * w;
  const int64_t ckk = in_channels_ * geom_.kernel_h * geom_.kernel_w;
  // Quantize the *input image* once, then gather bytes: quantization commutes
  // with im2col's rearrangement (zero padding maps to code 0 exactly), and the
  // gather moves 1-byte elements instead of expanding kh*kw-fold in float.
  const float scale = quantizer_.Scale(input.Data(), input.NumEl());
  std::vector<int8_t> xq(static_cast<size_t>(input.NumEl()));
  QuantizeActivations(input.Data(), xq.data(), input.NumEl(), scale);
  // Every output element is written by the int8 kernel — skip the zero-fill.
  Tensor out = Tensor::Uninitialized({b, out_channels_, oh, ow});
  const float* biasp = bias_.Defined() ? bias_.Data() : nullptr;
  float* outp = out.Data();
  // Batch items are independent; each chunk gathers into its own scratch. With
  // fewer items than threads, run items serially so the int8 kernel's internal
  // row parallelism can use the whole pool instead.
  const auto run_items = [&](int64_t lo, int64_t hi) {
    std::vector<int8_t> colq(static_cast<size_t>(ckk * ohow));
    for (int64_t bi = lo; bi < hi; ++bi) {
      Im2ColItemI8(xq.data() + bi * chw, in_channels_, h, w, geom_, colq.data());
      Int8GemmWeightLhs(weights_, colq.data(), scale, biasp,
                        outp + bi * out_channels_ * ohow, ohow);
    }
  };
  if (b >= ComputePoolThreads()) {
    ParallelFor(b, 1, run_items);
  } else {
    run_items(0, b);
  }
  return out;
}

Tensor QuantConv2d::Backward(const Tensor&) {
  EGERIA_CHECK_MSG(false, name_ + ": quantized modules are inference-only");
  return Tensor();
}

std::unique_ptr<Module> QuantConv2d::CloneForInference(const InferenceFactory&) const {
  EGERIA_CHECK_MSG(false, name_ + ": cannot re-clone a quantized module");
  return nullptr;
}

Fp16Linear::Fp16Linear(const Linear& src)
    : Module(src.name() + ".fp16"),
      in_features_(src.in_features()),
      out_features_(src.out_features()) {
  const float* w = src.weight().value.Data();
  weights_.resize(static_cast<size_t>(in_features_ * out_features_));
  for (size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = static_cast<_Float16>(w[i]);
  }
  if (src.has_bias()) {
    bias_ = src.bias().value.Clone();
  }
  training_ = false;
}

Tensor Fp16Linear::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Size(-1) == in_features_);
  const int64_t rows = input.NumEl() / in_features_;
  std::vector<int64_t> out_shape = input.Shape();
  out_shape.back() = out_features_;
  Tensor out = Tensor::Uninitialized(out_shape);
  const float* biasp = bias_.Defined() ? bias_.Data() : nullptr;
  float* y = out.Data();
  // Mixed-dtype packed GEMM: fp32 activations x fp16-stored weights, fp32
  // accumulation (the weight matrix — the bandwidth-dominant operand at
  // inference batch sizes — streams at half width).
  Gemm(input.Data(), weights_.data(), y, rows, in_features_, out_features_,
       /*trans_a=*/false, /*trans_b=*/true, /*accumulate=*/false);
  if (biasp != nullptr) {
    for (int64_t i = 0; i < rows; ++i) {
      float* yrow = y + i * out_features_;
#pragma omp simd
      for (int64_t j = 0; j < out_features_; ++j) {
        yrow[j] += biasp[j];
      }
    }
  }
  return out;
}

Tensor Fp16Linear::Backward(const Tensor&) {
  EGERIA_CHECK_MSG(false, name_ + ": fp16 modules are inference-only");
  return Tensor();
}

std::unique_ptr<Module> Fp16Linear::CloneForInference(const InferenceFactory&) const {
  EGERIA_CHECK_MSG(false, name_ + ": cannot re-clone an fp16 module");
  return nullptr;
}

Fp16Conv2d::Fp16Conv2d(const Conv2d& src)
    : Module(src.name() + ".fp16"),
      in_channels_(src.in_channels()),
      out_channels_(src.out_channels()),
      geom_(src.geom()) {
  const Tensor& w = src.weight().value;
  weights_.resize(static_cast<size_t>(w.NumEl()));
  for (size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = static_cast<_Float16>(w.Data()[i]);
  }
  if (src.has_bias()) {
    bias_ = src.bias().value.Clone();
  }
  training_ = false;
}

Tensor Fp16Conv2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4 && input.Size(1) == in_channels_);
  const int64_t b = input.Size(0);
  const int64_t oh = geom_.OutH(input.Size(2));
  const int64_t ow = geom_.OutW(input.Size(3));
  const int64_t ohow = oh * ow;
  Tensor cols = Im2Col(input, geom_);
  const int64_t ckk = cols.Size(1);
  Tensor out = Tensor::Uninitialized({b, out_channels_, oh, ow});
  const float* colsp = cols.Data();
  const float* biasp = bias_.Defined() ? bias_.Data() : nullptr;
  const _Float16* wp = weights_.data();
  float* outp = out.Data();
  // Mixed-dtype packed GEMM per batch item: fp16-stored weights x fp32 im2col
  // columns, fp32 accumulation. With fewer items than threads, run items
  // serially so the GEMM's internal parallelism can use the whole pool.
  const auto run_items = [&](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      float* obase = outp + bi * out_channels_ * ohow;
      Gemm(wp, colsp + bi * ckk * ohow, obase, out_channels_, ckk, ohow,
           /*trans_a=*/false, /*trans_b=*/false, /*accumulate=*/false);
      if (biasp != nullptr) {
        for (int64_t oc = 0; oc < out_channels_; ++oc) {
          float* orow = obase + oc * ohow;
          const float add = biasp[oc];
#pragma omp simd
          for (int64_t j = 0; j < ohow; ++j) {
            orow[j] += add;
          }
        }
      }
    }
  };
  if (b >= ComputePoolThreads()) {
    ParallelFor(b, 1, run_items);
  } else {
    run_items(0, b);
  }
  return out;
}

Tensor Fp16Conv2d::Backward(const Tensor&) {
  EGERIA_CHECK_MSG(false, name_ + ": fp16 modules are inference-only");
  return Tensor();
}

std::unique_ptr<Module> Fp16Conv2d::CloneForInference(const InferenceFactory&) const {
  EGERIA_CHECK_MSG(false, name_ + ": cannot re-clone an fp16 module");
  return nullptr;
}

std::unique_ptr<Module> Int8Factory::MakeLinear(const Linear& src) const {
  return std::make_unique<QuantLinear>(src, mode_);
}

std::unique_ptr<Module> Int8Factory::MakeConv2d(const Conv2d& src) const {
  return std::make_unique<QuantConv2d>(src, mode_);
}

std::unique_ptr<Module> Fp16Factory::MakeLinear(const Linear& src) const {
  return std::make_unique<Fp16Linear>(src);
}

std::unique_ptr<Module> Fp16Factory::MakeConv2d(const Conv2d& src) const {
  return std::make_unique<Fp16Conv2d>(src);
}

std::unique_ptr<InferenceFactory> MakeInferenceFactory(Precision precision, QuantMode mode) {
  switch (precision) {
    case Precision::kInt8:
      return std::make_unique<Int8Factory>(mode);
    case Precision::kFloat16:
      return std::make_unique<Fp16Factory>();
    case Precision::kFloat32:
      return std::make_unique<InferenceFactory>();
  }
  return std::make_unique<InferenceFactory>();
}

}  // namespace egeria
