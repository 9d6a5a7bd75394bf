// Freezing baselines the paper compares against (S2.3, S6.2, S7):
//
//  - StaticFreezeHook: transfer-learning style "fix layer k at epoch e" (Fig. 2).
//  - AutoFreezeHook: gradient-norm freezing in the spirit of AutoFreeze (Liu et
//    al. 2021): the frontmost active module freezes once its gradient norm stays
//    below a fraction of its historical maximum for `window` evaluations.
//  - SkipConvHook: uses the Skip-Convolutions input-norm gate on intermediate
//    activations between evaluation points as the convergence signal (S6.1: "we use
//    the input-norm gate of Skip-Conv, which applies to intermediate activation").
//  - FreezeOutHook: schedule-based progressive freezing (Brock et al.): module i
//    freezes at a predetermined fraction of total training, linear or cubic.
//
// All drive Trainer::FreezeUpTo through the shared FreezeHook interface, so they
// run in exactly the same loop as Egeria.
#ifndef EGERIA_SRC_BASELINES_FREEZE_BASELINES_H_
#define EGERIA_SRC_BASELINES_FREEZE_BASELINES_H_

#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/util/stats.h"

namespace egeria {

class StaticFreezeHook : public FreezeHook {
 public:
  // Freezes stages [0, stage] at the start of `epoch`.
  StaticFreezeHook(int epoch, int stage) : epoch_(epoch), stage_(stage) {}
  void OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) override;
  std::string Name() const override { return "static"; }

 private:
  int epoch_;
  int stage_;
  bool done_ = false;
};

struct AutoFreezeConfig {
  int64_t eval_interval = 50;
  int window = 5;
  // Freeze when grad norm < threshold_frac * historical max for `window` evals.
  double threshold_frac = 0.4;
};

class AutoFreezeHook : public FreezeHook {
 public:
  explicit AutoFreezeHook(const AutoFreezeConfig& cfg) : cfg_(cfg) {}
  void OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) override;
  std::string Name() const override { return "autofreeze"; }

 private:
  AutoFreezeConfig cfg_;
  int tracked_stage_ = -1;
  double max_norm_ = 0.0;
  int low_count_ = 0;
};

struct SkipConvConfig {
  int64_t eval_interval = 50;
  int window = 5;
  // Freeze when the input-norm gate < threshold_frac * its first reading.
  double threshold_frac = 0.3;
};

class SkipConvHook : public FreezeHook {
 public:
  explicit SkipConvHook(const SkipConvConfig& cfg) : cfg_(cfg) {}
  void OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) override;
  std::string Name() const override { return "skipconv"; }

 private:
  SkipConvConfig cfg_;
  int tracked_stage_ = -1;
  Tensor prev_activation_;
  double first_gate_ = -1.0;
  int low_count_ = 0;
};

struct FreezeOutConfig {
  // Fraction of total iterations by which every freezable module is frozen.
  double t_end_frac = 0.8;
  // Cubic schedule (FreezeOut's default) vs linear spacing of freeze times.
  bool cubic = true;
};

class FreezeOutHook : public FreezeHook {
 public:
  explicit FreezeOutHook(const FreezeOutConfig& cfg) : cfg_(cfg) {}
  void OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) override;
  std::string Name() const override { return "freezeout"; }

 private:
  FreezeOutConfig cfg_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_BASELINES_FREEZE_BASELINES_H_
