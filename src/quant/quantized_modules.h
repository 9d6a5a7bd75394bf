// Inference-only quantized layer kernels, substituted for Linear/Conv2d by the
// int8 / fp16 InferenceFactories when generating the reference model.
//
// Quantization modes (paper S5): *dynamic* computes the activation scale per batch
// (used for NLP models), *static* self-calibrates a MinMaxObserver over the first few
// forward passes and then freezes the scale (used for conv nets).
#ifndef EGERIA_SRC_QUANT_QUANTIZED_MODULES_H_
#define EGERIA_SRC_QUANT_QUANTIZED_MODULES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/conv2d.h"
#include "src/nn/linear.h"
#include "src/nn/module.h"
#include "src/quant/quantize.h"

namespace egeria {

enum class QuantMode { kDynamic, kStatic };

// Number of forward passes used for observer calibration in static mode.
inline constexpr int kStaticCalibrationBatches = 2;

// Static-mode self-calibration state (observer range + remaining calibration
// batches). Checkpoints persist this for every quantized module of the
// reference model: a reference rebuilt from a snapshot mid-calibration must
// continue with the same scales, or post-restore plasticity readings — and
// therefore freeze decisions — drift off the uninterrupted run.
struct QuantCalibrationState {
  float max_abs = 0.0F;
  bool observed = false;
  int calibration_left = kStaticCalibrationBatches;
};

// The activation quantizer of QuantLinear and QuantConv2d: picks the int8
// scale of each forward's input per the mode.
class ActivationQuantizer {
 public:
  explicit ActivationQuantizer(QuantMode mode) : mode_(mode) {}

  // The scale for input x[0, n); in static mode the first
  // kStaticCalibrationBatches calls also widen the observed range.
  float Scale(const float* x, int64_t n);

  QuantCalibrationState calibration() const {
    return {observer_.MaxAbs(), observer_.Calibrated(), calibration_left_};
  }
  void RestoreCalibration(const QuantCalibrationState& s) {
    observer_.Restore(s.max_abs, s.observed);
    calibration_left_ = s.calibration_left;
  }

 private:
  QuantMode mode_;
  MinMaxObserver observer_;
  int calibration_left_ = kStaticCalibrationBatches;
};

class QuantLinear : public Module {
 public:
  QuantLinear(const Linear& src, QuantMode mode);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;  // CHECK-fails: inference only
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

  ActivationQuantizer& quantizer() { return quantizer_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  QuantizedWeights weights_;
  Tensor bias_;  // float, undefined if absent
  ActivationQuantizer quantizer_;
};

class QuantConv2d : public Module {
 public:
  QuantConv2d(const Conv2d& src, QuantMode mode);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

  ActivationQuantizer& quantizer() { return quantizer_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  ConvGeom geom_;
  QuantizedWeights weights_;  // [out_c, in_c*kh*kw]
  Tensor bias_;
  ActivationQuantizer quantizer_;
};

// fp16 storage emulation via _Float16: halves weight memory traffic; compute in f32.
class Fp16Linear : public Module {
 public:
  explicit Fp16Linear(const Linear& src);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

 private:
  int64_t in_features_;
  int64_t out_features_;
  std::vector<_Float16> weights_;  // [out, in]
  Tensor bias_;
};

class Fp16Conv2d : public Module {
 public:
  explicit Fp16Conv2d(const Conv2d& src);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  ConvGeom geom_;
  std::vector<_Float16> weights_;  // [out_c, ckk]
  Tensor bias_;
};

// Factories plugged into Module::CloneForInference.
class Int8Factory : public InferenceFactory {
 public:
  explicit Int8Factory(QuantMode mode) : mode_(mode) {}
  std::unique_ptr<Module> MakeLinear(const Linear& src) const override;
  std::unique_ptr<Module> MakeConv2d(const Conv2d& src) const override;
  Precision precision() const override { return Precision::kInt8; }

 private:
  QuantMode mode_;
};

class Fp16Factory : public InferenceFactory {
 public:
  std::unique_ptr<Module> MakeLinear(const Linear& src) const override;
  std::unique_ptr<Module> MakeConv2d(const Conv2d& src) const override;
  Precision precision() const override { return Precision::kFloat16; }
};

// Factory selection for a reference precision; mode applies to int8 only.
std::unique_ptr<InferenceFactory> MakeInferenceFactory(Precision precision, QuantMode mode);

}  // namespace egeria

#endif  // EGERIA_SRC_QUANT_QUANTIZED_MODULES_H_
