#include "src/baselines/freeze_baselines.h"

#include <cmath>

#include "src/metrics/gradient_metrics.h"
#include "src/util/logging.h"

namespace egeria {

void StaticFreezeHook::OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) {
  (void)batch;
  if (done_) {
    return;
  }
  const int64_t target_iter = static_cast<int64_t>(epoch_) * trainer.IterationsPerEpoch();
  if (iter >= target_iter) {
    trainer.FreezeUpTo(stage_, iter);
    done_ = true;
  }
}

void AutoFreezeHook::OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) {
  (void)batch;
  if (iter % cfg_.eval_interval != 0) {
    return;
  }
  const int frontier = trainer.frontier();
  const int max_freezable = trainer.model().NumStages() - 1 - kProtectedTailStages;
  if (frontier > max_freezable) {
    return;
  }
  if (tracked_stage_ != frontier) {
    tracked_stage_ = frontier;
    max_norm_ = 0.0;
    low_count_ = 0;
  }
  // Gradient norms are fresh: the hook runs right after the backward pass.
  const double norm = StageGradientNorm(trainer.model().StageParams(frontier));
  max_norm_ = std::max(max_norm_, norm);
  if (max_norm_ > 0.0 && norm < cfg_.threshold_frac * max_norm_) {
    ++low_count_;
  } else {
    low_count_ = 0;
  }
  if (low_count_ >= cfg_.window) {
    trainer.FreezeUpTo(frontier, iter);
  }
}

void SkipConvHook::OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) {
  (void)batch;
  if (iter % cfg_.eval_interval != 0) {
    return;
  }
  const int frontier = trainer.frontier();
  const int max_freezable = trainer.model().NumStages() - 1 - kProtectedTailStages;
  if (frontier > max_freezable) {
    return;
  }
  if (tracked_stage_ != frontier) {
    tracked_stage_ = frontier;
    prev_activation_ = Tensor();
    first_gate_ = -1.0;
    low_count_ = 0;
  }
  Tensor act = trainer.FrontierActivation();
  if (!act.Defined()) {
    return;
  }
  if (prev_activation_.Defined() && prev_activation_.NumEl() == act.NumEl()) {
    const double gate = SkipConvGate(act, prev_activation_);
    if (first_gate_ < 0.0) {
      first_gate_ = gate;
    }
    if (first_gate_ > 0.0 && gate < cfg_.threshold_frac * first_gate_) {
      ++low_count_;
    } else {
      low_count_ = 0;
    }
    if (low_count_ >= cfg_.window) {
      trainer.FreezeUpTo(frontier, iter);
      return;
    }
  }
  prev_activation_ = act.Clone();
}

void FreezeOutHook::OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) {
  (void)batch;
  const int max_freezable = trainer.model().NumStages() - 1 - kProtectedTailStages;
  const int frontier = trainer.frontier();
  if (frontier > max_freezable) {
    return;
  }
  const double total = static_cast<double>(trainer.TotalIterations());
  // Freeze time of module i: t_i = t_end * ((i+1)/M)^p with p = 3 (cubic) or 1.
  const double m = static_cast<double>(max_freezable + 1);
  const double frac = static_cast<double>(frontier + 1) / m;
  const double power = cfg_.cubic ? 3.0 : 1.0;
  const double t_i = cfg_.t_end_frac * total * std::pow(frac, power);
  if (static_cast<double>(iter) >= t_i) {
    trainer.FreezeUpTo(frontier, iter);
  }
}

}  // namespace egeria
