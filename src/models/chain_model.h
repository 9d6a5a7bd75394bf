// ChainModel: the stage-chain abstraction Egeria operates on.
//
// A chain model is an ordered list of *stages* (the paper's "layer modules"): stage i
// consumes the boundary activation produced by stage i-1. This is the structure that
// makes every Egeria mechanism expressible:
//   - plasticity is evaluated on StageOutput(l) of the frontmost active stage l
//     against the reference model's same boundary (Eq. 1);
//   - freezing stage l means BackwardTo(l+1, ...) — no gradients below — and
//     excluding ParamsFrom(l+1)'s complement from the optimizer and synchronization;
//   - forward skipping replays a cached boundary activation via ForwardFrom(l+1, act).
//
// StageChainModel covers linear chains (ResNets, MobileNetV2, DeepLab, BERT-style
// encoders). The encoder-decoder Transformer has its own implementation that routes
// cross-attention memory gradients (src/models/transformer.h).
#ifndef EGERIA_SRC_MODELS_CHAIN_MODEL_H_
#define EGERIA_SRC_MODELS_CHAIN_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/data/batch.h"
#include "src/nn/module.h"

namespace egeria {

class ChainModel {
 public:
  virtual ~ChainModel() = default;

  virtual int NumStages() const = 0;
  virtual std::string StageName(int i) const = 0;
  virtual int64_t StageParamCount(int i) = 0;
  virtual std::vector<Parameter*> StageParams(int i) = 0;

  // The training modules making up stage i, in a stable order (most stages are
  // one module; the Transformer's first decoder stage also owns the target
  // embedding). The checkpoint subsystem traverses these to reach state that
  // is not a Parameter (BatchNorm running statistics). Default: none — such a
  // model checkpoints parameters only.
  virtual std::vector<Module*> StageModules(int i) {
    (void)i;
    return {};
  }

  // Parameters of stages [first_stage, NumStages). The active set under freezing.
  std::vector<Parameter*> ParamsFrom(int first_stage);
  int64_t TotalParamCount();

  // True when no module of stages [0, frontier) is stochastic in its current
  // mode (Module::ForwardIsStochastic, checked recursively). The frozen-
  // feature store consults this before serving: a train-mode Dropout in the
  // prefix would make cached boundary activations replay stale masks, so it
  // forces a recompute. A frontier frozen through FreezeUpTo always passes —
  // SetFrozen turns the prefix's stochastic layers into no-ops.
  bool PrefixForwardDeterministic(int frontier);

  // Provides task context (labels, decoder input tokens). Called once per batch
  // before ForwardFrom.
  virtual void SetBatch(const Batch& batch) { (void)batch; }

  // Runs stages [start, NumStages) and returns the model output (logits). For
  // start == 0, `input` is the raw batch input; otherwise it is the cached boundary
  // activation that feeds stage `start`. Boundary activations of executed stages are
  // recorded and readable via StageOutput.
  virtual Tensor ForwardFrom(int start, const Tensor& input) = 0;

  // Backpropagates from the output, stopping before stage `stop`: stages < stop see
  // no backward work at all (the frozen prefix). stop == 0 is full backprop.
  virtual void BackwardTo(int stop, const Tensor& grad_output) = 0;

  // Observer fired during BackwardTo, once per visited stage, at the moment
  // EVERY parameter gradient of that stage is final for the pass (a stage that
  // owns auxiliary modules — the Transformer's first decoder stage and its
  // target embedding — fires only after all of them). Stages are reported in
  // the model's own backward order (deepest first). Per-stage backward timing
  // hangs off this (perfbench/tracing.cc). Null = no-op.
  using StageBackwardObserver = std::function<void(int stage)>;
  void SetStageBackwardObserver(StageBackwardObserver observer) {
    stage_backward_observer_ = std::move(observer);
  }

  // Boundary activation recorded by the last ForwardFrom (output of stage i).
  virtual Tensor StageOutput(int i) const = 0;

  // Runs only stages [0, end_stage] and returns the boundary activation of
  // end_stage. This is what the reference model executes for plasticity evaluation —
  // the controller never needs stages beyond the frontier. Default: full forward.
  virtual Tensor ForwardPrefix(int end_stage, const Tensor& input) {
    ForwardFrom(0, input);
    return StageOutput(end_stage);
  }

  // Exclusive upper bound on stages whose *output* can seed ForwardFrom. Linear
  // chains allow every boundary; the Transformer allows boundaries up to (and
  // including) the encoder memory.
  virtual int MaxForwardSkipStage() const { return NumStages() - 1; }

  virtual void SetStageFrozen(int i, bool frozen) = 0;
  virtual void SetTraining(bool training) = 0;
  virtual void ZeroGrad() = 0;

  // Nothing in the library calls this. The virtual stays only because
  // perfbench/tracing.h overrides it; delete both together.
  virtual bool SetStageForwardPrecision(int i, Precision p) {
    (void)i;
    return p == Precision::kFloat32;
  }

  // Inference-only deep copy (the reference model), with the factory choosing kernel
  // precision. The clone supports SetBatch/ForwardFrom/StageOutput only.
  virtual std::unique_ptr<ChainModel> CloneForInference(const InferenceFactory& factory) const = 0;

  // Copies parameter values and normalization statistics from an identically
  // structured model (data-parallel replicas, checkpoint restore).
  virtual void CopyStateFrom(ChainModel& other) = 0;

 protected:
  void NotifyStageBackward(int stage) {
    if (stage_backward_observer_) {
      stage_backward_observer_(stage);
    }
  }

 private:
  StageBackwardObserver stage_backward_observer_;
};

// ChainModel over an explicit list of single-input modules.
class StageChainModel : public ChainModel {
 public:
  StageChainModel(std::string name, std::vector<std::unique_ptr<Module>> stages);

  int NumStages() const override { return static_cast<int>(stages_.size()); }
  std::string StageName(int i) const override;
  int64_t StageParamCount(int i) override;
  std::vector<Parameter*> StageParams(int i) override;
  std::vector<Module*> StageModules(int i) override {
    return {stages_[static_cast<size_t>(i)].get()};
  }

  Tensor ForwardFrom(int start, const Tensor& input) override;
  void BackwardTo(int stop, const Tensor& grad_output) override;
  Tensor StageOutput(int i) const override;
  Tensor ForwardPrefix(int end_stage, const Tensor& input) override;

  void SetStageFrozen(int i, bool frozen) override;
  void SetTraining(bool training) override;
  void ZeroGrad() override;

  std::unique_ptr<ChainModel> CloneForInference(const InferenceFactory& factory) const override;
  void CopyStateFrom(ChainModel& other) override;

  const std::string& name() const { return name_; }
  Module* stage(int i) { return stages_[static_cast<size_t>(i)].get(); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Module>> stages_;
  std::vector<Tensor> stage_outputs_;
  int last_start_ = 0;
};

}  // namespace egeria

#endif  // EGERIA_SRC_MODELS_CHAIN_MODEL_H_
