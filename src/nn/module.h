// Layer-graph NN framework with explicit per-module Forward/Backward.
//
// Why not tape-based autograd: Egeria's mechanisms are all *layer-structural* — it
// hooks intermediate activations at module boundaries, stops backpropagation at the
// frontmost active module, excludes frozen parameters from the optimizer and from
// gradient synchronization, and swaps frozen BatchNorm layers to inference mode
// (paper S4.2-S4.3). An explicit layer chain exposes each of those hooks directly,
// which is exactly the role the paper's forward hooks / requires_grad plumbing plays
// in PyTorch.
//
// Contract: Forward(x) caches whatever Backward needs; Backward(grad_out) accumulates
// parameter gradients (into Parameter::grad) and returns the gradient w.r.t. the
// module input. Backward must be preceded by a matching Forward in training mode.
#ifndef EGERIA_SRC_NN_MODULE_H_
#define EGERIA_SRC_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/tensor.h"

namespace egeria {

// Numeric precision for reference-model clones (paper S4.1.3, Table 2).
enum class Precision { kFloat32, kFloat16, kInt8 };

std::string PrecisionName(Precision p);

// A learnable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v) : name(std::move(n)), value(std::move(v)) {
    grad = Tensor::Zeros(value.Shape());
  }
};

class Module;

// Maps trainable layers to their inference-time replacements when cloning a model
// into a reference model. The base factory produces float32 copies; the int8/fp16
// factories in src/quant substitute quantized kernels for Linear/Conv layers.
class InferenceFactory {
 public:
  virtual ~InferenceFactory() = default;
  virtual std::unique_ptr<Module> MakeLinear(const class Linear& src) const;
  virtual std::unique_ptr<Module> MakeConv2d(const class Conv2d& src) const;
  virtual std::unique_ptr<Module> MakeDepthwiseConv2d(const class DepthwiseConv2d& src) const;
  virtual Precision precision() const { return Precision::kFloat32; }
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual Tensor Forward(const Tensor& input) = 0;
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  // Parameters owned directly by this module (not by children).
  virtual std::vector<Parameter*> LocalParams() { return {}; }
  // Non-parameter tensors that are part of the module's persistent training
  // state (BatchNorm running statistics). CopyStateFrom already replicates
  // them between live models; this hook is what lets the checkpoint subsystem
  // persist them to disk alongside parameters. Names must be stable and
  // unique within the module.
  virtual std::vector<std::pair<std::string, Tensor*>> LocalStateTensors() {
    return {};
  }
  // Direct submodules. Used for recursive traversal (params, modes).
  virtual std::vector<Module*> Children() { return {}; }

  // All parameters in the subtree, depth-first.
  std::vector<Parameter*> Parameters();
  int64_t ParamCount();
  void ZeroGrad();

  // Training vs inference mode (dropout, batchnorm). Recurses into children.
  virtual void SetTraining(bool training);
  bool training() const { return training_; }

  // Freezing marker. A frozen module's parameters are excluded from optimization and
  // synchronization; BatchNorm additionally switches to running statistics so that
  // frozen-prefix activations are input-deterministic (cache-compatible, S4.3).
  virtual void SetFrozen(bool frozen);
  bool frozen() const { return frozen_; }

  // True when Forward draws from a random stream in the module's CURRENT mode
  // (Dropout in training, unfrozen mode). The frozen-feature store refuses to
  // serve a prefix containing any such module: its boundary output is not a
  // pure function of the input. Freezing or eval mode turns the stochastic
  // layers here into no-ops, so a properly frozen prefix always reports false.
  virtual bool ForwardIsStochastic() const { return false; }

  // Builds an inference-only deep copy of this module with the factory deciding the
  // kernel for each leaf (float clone, int8, fp16). Used to generate the reference
  // model from a training snapshot (S4.1.3).
  virtual std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const = 0;

  // Copies parameter *values* (and normalization statistics) from a module with the
  // same architecture. Used to refresh reference snapshots and to replicate models
  // across data-parallel workers.
  virtual void CopyStateFrom(const Module& other);

  const std::string& name() const { return name_; }

 protected:
  void CollectParams(std::vector<Parameter*>& out);

  std::string name_;
  bool training_ = true;
  bool frozen_ = false;
};

// Copies values between identically-shaped parameter lists.
void CopyParamValues(const std::vector<Parameter*>& dst, const std::vector<Parameter*>& src);

}  // namespace egeria

#endif  // EGERIA_SRC_NN_MODULE_H_
