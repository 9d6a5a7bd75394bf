// Algorithm 1: the knowledge-guided layer freezing decision procedure.
//
// Per layer module the policy keeps the plasticity history; each evaluation is
// smoothed by a window-W moving average (Eq. 2), the smoothed series is fit with
// least-squares over the last W points, and a module freezes after W consecutive
// evaluations whose |slope| is below its tolerance T. T is auto-set per module to
// tolerance_coef x the max |slope| among the module's first 3 readings ("layers move
// differently and thus should have per-layer thresholds", S4.2.2).
//
// Unfreezing: with an annealing LR schedule, a drop to <= 10% of the LR recorded at
// the frontmost freeze unfreezes everything and halves W for refreezing. Cyclical
// schedules delegate to a user hook.
#ifndef EGERIA_SRC_CORE_FREEZING_POLICY_H_
#define EGERIA_SRC_CORE_FREEZING_POLICY_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "src/core/config.h"
#include "src/util/stats.h"

namespace egeria {

struct FreezeDecision {
  enum class Kind { kFreezeUpTo, kUnfreezeAll };
  Kind kind = Kind::kFreezeUpTo;
  int stage = 0;       // kFreezeUpTo: freeze stages [0, stage]
  int64_t iter = 0;    // training iteration the decision was made at
};

class FreezingPolicy {
 public:
  FreezingPolicy(const EgeriaConfig& cfg, int num_stages, bool lr_is_annealing);

  // Feeds one plasticity reading for the current frontier module. Returns a decision
  // when one fires. `lr` is the learning rate at the evaluated iteration.
  std::optional<FreezeDecision> OnPlasticity(int stage, double plasticity, float lr,
                                             int64_t iter);

  // LR-based unfreeze check, callable every iteration (cheap). Returns kUnfreezeAll
  // when the annealing drop rule fires.
  std::optional<FreezeDecision> OnLr(float lr, int64_t iter);

  // Custom unfreeze criterion for cyclical schedules (paper: user-customizable).
  using CyclicalHook = std::function<bool(float lr, int64_t iter)>;
  void SetCyclicalHook(CyclicalHook hook) { cyclical_hook_ = std::move(hook); }

  int frontier() const { return frontier_; }
  int window() const { return window_; }
  // Highest stage the policy may freeze (protects the tail module).
  int MaxFreezable() const { return num_stages_ - 1 - cfg_.protected_tail; }

  // Exposed for tests and the Fig. 12 sensitivity bench.
  double ToleranceOf(int stage) const;

  // Checkpoint support: the full decision state (per-stage smoothing/fit
  // histories with their incrementally-maintained sums, tolerances, stale
  // counters, the frontier, and the unfreeze bookkeeping). A policy restored
  // via LoadState produces bitwise-identical decisions to one that lived
  // through the readings. LoadState expects a policy constructed with the
  // same (cfg, num_stages, lr_is_annealing); returns false (and logs) on a
  // malformed or mismatched blob.
  void SaveState(std::ostream& os) const;
  bool LoadState(std::istream& is);

 private:
  void ResetStageState(int stage);

  EgeriaConfig cfg_;
  int num_stages_;
  bool lr_annealing_;
  int frontier_ = 0;  // frontmost active stage; stages < frontier are frozen
  int window_;

  struct StageState {
    std::unique_ptr<MovingAverage> smoother;
    std::unique_ptr<WindowedLinearFit> fitter;
    int readings = 0;
    double max_initial_slope = 0.0;
    double tolerance = -1.0;  // <0: not yet set
    int stale_counter = 0;
    double last_slope = 0.0;
  };
  std::vector<StageState> stages_;

  bool any_frozen_ = false;
  float lr_at_first_freeze_ = 0.0F;
  CyclicalHook cyclical_hook_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_FREEZING_POLICY_H_
