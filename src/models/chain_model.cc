#include "src/models/chain_model.h"

#include "src/util/logging.h"

namespace egeria {

std::vector<Parameter*> ChainModel::ParamsFrom(int first_stage) {
  std::vector<Parameter*> out;
  for (int i = first_stage; i < NumStages(); ++i) {
    for (Parameter* p : StageParams(i)) {
      out.push_back(p);
    }
  }
  return out;
}

int64_t ChainModel::TotalParamCount() {
  int64_t total = 0;
  for (int i = 0; i < NumStages(); ++i) {
    total += StageParamCount(i);
  }
  return total;
}

namespace {

bool SubtreeIsStochastic(Module* m) {
  if (m->ForwardIsStochastic()) {
    return true;
  }
  for (Module* child : m->Children()) {
    if (SubtreeIsStochastic(child)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ChainModel::PrefixForwardDeterministic(int frontier) {
  for (int i = 0; i < frontier && i < NumStages(); ++i) {
    for (Module* m : StageModules(i)) {
      if (SubtreeIsStochastic(m)) {
        return false;
      }
    }
  }
  return true;
}

StageChainModel::StageChainModel(std::string name,
                                 std::vector<std::unique_ptr<Module>> stages)
    : name_(std::move(name)), stages_(std::move(stages)) {
  EGERIA_CHECK_MSG(!stages_.empty(), name_ + ": empty chain");
  stage_outputs_.resize(stages_.size());
}

std::string StageChainModel::StageName(int i) const {
  return stages_[static_cast<size_t>(i)]->name();
}

int64_t StageChainModel::StageParamCount(int i) {
  return stages_[static_cast<size_t>(i)]->ParamCount();
}

std::vector<Parameter*> StageChainModel::StageParams(int i) {
  return stages_[static_cast<size_t>(i)]->Parameters();
}

Tensor StageChainModel::ForwardFrom(int start, const Tensor& input) {
  EGERIA_CHECK(start >= 0 && start < NumStages());
  last_start_ = start;
  Tensor x = input;
  for (int i = start; i < NumStages(); ++i) {
    x = stages_[static_cast<size_t>(i)]->Forward(x);
    stage_outputs_[static_cast<size_t>(i)] = x;
  }
  return x;
}

void StageChainModel::BackwardTo(int stop, const Tensor& grad_output) {
  EGERIA_CHECK(stop >= 0 && stop <= NumStages());
  EGERIA_CHECK_MSG(stop >= last_start_, name_ + ": BackwardTo below last ForwardFrom start");
  Tensor g = grad_output;
  for (int i = NumStages() - 1; i >= stop; --i) {
    g = stages_[static_cast<size_t>(i)]->Backward(g);
    NotifyStageBackward(i);
  }
}

Tensor StageChainModel::StageOutput(int i) const {
  EGERIA_CHECK(i >= 0 && i < NumStages());
  return stage_outputs_[static_cast<size_t>(i)];
}

Tensor StageChainModel::ForwardPrefix(int end_stage, const Tensor& input) {
  EGERIA_CHECK(end_stage >= 0 && end_stage < NumStages());
  Tensor x = input;
  for (int i = 0; i <= end_stage; ++i) {
    x = stages_[static_cast<size_t>(i)]->Forward(x);
    stage_outputs_[static_cast<size_t>(i)] = x;
  }
  return x;
}

void StageChainModel::SetStageFrozen(int i, bool frozen) {
  stages_[static_cast<size_t>(i)]->SetFrozen(frozen);
}

void StageChainModel::SetTraining(bool training) {
  for (auto& s : stages_) {
    s->SetTraining(training);
  }
}

void StageChainModel::ZeroGrad() {
  for (auto& s : stages_) {
    s->ZeroGrad();
  }
}

std::unique_ptr<ChainModel> StageChainModel::CloneForInference(
    const InferenceFactory& factory) const {
  std::vector<std::unique_ptr<Module>> clones;
  clones.reserve(stages_.size());
  for (const auto& s : stages_) {
    clones.push_back(s->CloneForInference(factory));
  }
  auto model = std::make_unique<StageChainModel>(name_ + ".ref", std::move(clones));
  model->SetTraining(false);
  return model;
}

void StageChainModel::CopyStateFrom(ChainModel& other) {
  auto* src = dynamic_cast<StageChainModel*>(&other);
  EGERIA_CHECK_MSG(src != nullptr, name_ + ": CopyStateFrom type mismatch");
  EGERIA_CHECK(src->NumStages() == NumStages());
  for (int i = 0; i < NumStages(); ++i) {
    stages_[static_cast<size_t>(i)]->CopyStateFrom(*src->stages_[static_cast<size_t>(i)]);
  }
}

}  // namespace egeria
