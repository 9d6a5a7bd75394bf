// Learning-rate schedules as pure functions of the global iteration.
//
// These drive Egeria's unfreezing mechanism (paper S4.2.2): with annealing-style
// schedules (step decay / exponential), Egeria unfreezes all layers once the LR has
// dropped by 10x since the frontmost freeze; other schedules never unfreeze.
// The schedule kinds mirror the paper's evaluation:
// step decay (CV), inverse square root (Transformer), linear (BERT fine-tuning),
// plus cosine annealing and cyclical for the unfreeze-policy tests.
#ifndef EGERIA_SRC_OPTIM_LR_SCHEDULER_H_
#define EGERIA_SRC_OPTIM_LR_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace egeria {

enum class LrScheduleKind { kConstant, kStepDecay, kInverseSqrt, kLinear, kCosine, kCyclical };

class LrScheduler {
 public:
  virtual ~LrScheduler() = default;
  virtual float LrAt(int64_t step) const = 0;
  virtual LrScheduleKind kind() const = 0;
  // True for monotone annealing schedules where the 10x-drop unfreeze rule applies.
  bool IsAnnealing() const {
    const LrScheduleKind k = kind();
    return k == LrScheduleKind::kStepDecay || k == LrScheduleKind::kLinear ||
           k == LrScheduleKind::kInverseSqrt;
  }
};

class ConstantLr : public LrScheduler {
 public:
  explicit ConstantLr(float lr) : lr_(lr) {}
  float LrAt(int64_t) const override { return lr_; }
  LrScheduleKind kind() const override { return LrScheduleKind::kConstant; }

 private:
  float lr_;
};

// Multiplies by `factor` at each milestone step (e.g. the paper's ResNet schedule:
// x0.1 at epochs 100 and 150).
class StepDecayLr : public LrScheduler {
 public:
  StepDecayLr(float base, float factor, std::vector<int64_t> milestones);
  float LrAt(int64_t step) const override;
  LrScheduleKind kind() const override { return LrScheduleKind::kStepDecay; }

 private:
  float base_;
  float factor_;
  std::vector<int64_t> milestones_;
};

// Transformer schedule: linear warmup then ~ 1/sqrt(step).
class InverseSqrtLr : public LrScheduler {
 public:
  InverseSqrtLr(float base, int64_t warmup_steps);
  float LrAt(int64_t step) const override;
  LrScheduleKind kind() const override { return LrScheduleKind::kInverseSqrt; }

 private:
  float base_;
  int64_t warmup_;
};

// BERT fine-tuning schedule: linear decay from base to 0 over total_steps.
class LinearDecayLr : public LrScheduler {
 public:
  LinearDecayLr(float base, int64_t total_steps);
  float LrAt(int64_t step) const override;
  LrScheduleKind kind() const override { return LrScheduleKind::kLinear; }

 private:
  float base_;
  int64_t total_;
};

// Cosine annealing between base and min_lr with the given period (SGDR-style).
class CosineAnnealingLr : public LrScheduler {
 public:
  CosineAnnealingLr(float base, float min_lr, int64_t period);
  float LrAt(int64_t step) const override;
  LrScheduleKind kind() const override { return LrScheduleKind::kCosine; }

 private:
  float base_;
  float min_lr_;
  int64_t period_;
};

// Triangular cyclical LR between min and max.
class CyclicalLr : public LrScheduler {
 public:
  CyclicalLr(float min_lr, float max_lr, int64_t half_period);
  float LrAt(int64_t step) const override;
  LrScheduleKind kind() const override { return LrScheduleKind::kCyclical; }

 private:
  float min_lr_;
  float max_lr_;
  int64_t half_period_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_OPTIM_LR_SCHEDULER_H_
