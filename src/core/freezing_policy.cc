#include "src/core/freezing_policy.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>

#include "src/ckpt/wire.h"
#include "src/util/logging.h"

namespace egeria {

namespace {
// Tolerance floor so that modules whose plasticity is flat from the very first
// readings (max initial slope ~ 0) can still freeze.
constexpr double kToleranceFloor = 1e-7;

// Unfreeze-all fires when lr <= kUnfreezeLrFactor * lr_at_first_freeze under an
// annealing schedule ("LR has dropped over a factor of 10", S4.2.2).
constexpr double kUnfreezeLrFactor = 0.1;

// W is multiplied by this after each unfreeze ("halve the counter and history
// buffer W for refreezing", S4.2.2).
constexpr double kRefreezeWindowFactor = 0.5;
}  // namespace

FreezingPolicy::FreezingPolicy(const EgeriaConfig& cfg, int num_stages,
                               bool lr_is_annealing)
    : cfg_(cfg),
      num_stages_(num_stages),
      lr_annealing_(lr_is_annealing),
      window_(std::max(2, cfg.window_w)) {
  EGERIA_CHECK(num_stages_ >= 2);
  stages_.resize(static_cast<size_t>(num_stages_));
  for (int i = 0; i < num_stages_; ++i) {
    ResetStageState(i);
  }
}

void FreezingPolicy::ResetStageState(int stage) {
  StageState& s = stages_[static_cast<size_t>(stage)];
  s.smoother = std::make_unique<MovingAverage>(static_cast<size_t>(window_));
  s.fitter = std::make_unique<WindowedLinearFit>(static_cast<size_t>(std::max(2, window_)));
  s.readings = 0;
  s.max_initial_slope = 0.0;
  s.tolerance = -1.0;
  s.stale_counter = 0;
  s.last_slope = 0.0;
}

double FreezingPolicy::ToleranceOf(int stage) const {
  return stages_[static_cast<size_t>(stage)].tolerance;
}

std::optional<FreezeDecision> FreezingPolicy::OnPlasticity(int stage, double plasticity,
                                                           float lr, int64_t iter) {
  (void)lr;
  if (stage != frontier_) {
    return std::nullopt;  // Stale evaluation from before a freeze/unfreeze; ignore.
  }
  if (frontier_ > MaxFreezable()) {
    return std::nullopt;  // Only the protected tail remains; nothing to do.
  }
  StageState& s = stages_[static_cast<size_t>(stage)];

  // Equation 2: moving-average smoothing, then windowed linear fit of the smoothed
  // series; the slope decides stationarity.
  const double smoothed = s.smoother->Add(plasticity);
  s.fitter->Add(smoothed);
  ++s.readings;
  const double slope = s.fitter->Fit().slope;
  s.last_slope = slope;

  if (s.readings <= 3) {
    // Per-module tolerance: 20% of the max |slope| among the first 3 readings.
    s.max_initial_slope = std::max(s.max_initial_slope, std::abs(slope));
    if (s.readings == 3) {
      s.tolerance = std::max(cfg_.tolerance_coef * s.max_initial_slope, kToleranceFloor);
    }
    return std::nullopt;
  }

  // "If the fitting line is close to horizontal" (Algorithm 1 line 10).
  if (std::abs(slope) < s.tolerance) {
    ++s.stale_counter;
  } else {
    s.stale_counter = 0;
  }

  if (s.stale_counter >= window_) {
    // Freeze this module and advance to the next active layer.
    if (!any_frozen_) {
      lr_at_first_freeze_ = lr;
      any_frozen_ = true;
    }
    FreezeDecision d;
    d.kind = FreezeDecision::Kind::kFreezeUpTo;
    d.stage = frontier_;
    d.iter = iter;
    ++frontier_;
    return d;
  }
  return std::nullopt;
}

namespace {
constexpr uint32_t kPolicyMagic = 0x4F504745;  // 'EGPO'
constexpr uint32_t kPolicyVersion = 1;
}  // namespace

void FreezingPolicy::SaveState(std::ostream& os) const {
  wire::Write(os, kPolicyMagic);
  wire::Write(os, kPolicyVersion);
  wire::Write(os, static_cast<int32_t>(num_stages_));
  wire::Write(os, static_cast<int32_t>(window_));
  wire::Write(os, static_cast<int32_t>(frontier_));
  wire::Write(os, static_cast<uint8_t>(any_frozen_ ? 1 : 0));
  wire::Write(os, lr_at_first_freeze_);
  for (const StageState& s : stages_) {
    wire::Write(os, static_cast<uint64_t>(s.smoother->window()));
    wire::WriteDoubles(os, s.smoother->History());
    wire::Write(os, s.smoother->Sum());
    wire::Write(os, static_cast<uint64_t>(s.smoother->Count()));
    wire::WriteDoubles(os, s.fitter->History());
    wire::Write(os, static_cast<int32_t>(s.readings));
    wire::Write(os, s.max_initial_slope);
    wire::Write(os, s.tolerance);
    wire::Write(os, static_cast<int32_t>(s.stale_counter));
    wire::Write(os, s.last_slope);
  }
}

bool FreezingPolicy::LoadState(std::istream& is) {
  uint32_t magic = 0;
  uint32_t version = 0;
  int32_t num_stages = 0;
  int32_t window = 0;
  int32_t frontier = 0;
  uint8_t any_frozen = 0;
  float lr_at_first_freeze = 0.0F;
  if (!wire::Read(is, magic) || magic != kPolicyMagic || !wire::Read(is, version) ||
      version != kPolicyVersion || !wire::Read(is, num_stages) ||
      !wire::Read(is, window) || !wire::Read(is, frontier) ||
      !wire::Read(is, any_frozen) || !wire::Read(is, lr_at_first_freeze)) {
    EGERIA_LOG(kError) << "freezing-policy state: bad header";
    return false;
  }
  if (num_stages != num_stages_) {
    EGERIA_LOG(kError) << "freezing-policy state: saved for " << num_stages
                       << " stages, model has " << num_stages_;
    return false;
  }
  if (window < 2 || frontier < 0 || frontier > num_stages_) {
    EGERIA_LOG(kError) << "freezing-policy state: implausible window/frontier";
    return false;
  }
  std::vector<StageState> loaded(static_cast<size_t>(num_stages_));
  for (StageState& s : loaded) {
    uint64_t smoother_window = 0;
    std::deque<double> smoother_values;
    double smoother_sum = 0.0;
    uint64_t smoother_count = 0;
    std::deque<double> fitter_values;
    int32_t readings = 0;
    int32_t stale_counter = 0;
    if (!wire::Read(is, smoother_window) || smoother_window < 1 ||
        smoother_window > (1U << 20) ||
        !wire::ReadDoubles(is, smoother_values, smoother_window) ||
        !wire::Read(is, smoother_sum) || !wire::Read(is, smoother_count) ||
        !wire::ReadDoubles(is, fitter_values) || !wire::Read(is, readings) ||
        !wire::Read(is, s.max_initial_slope) || !wire::Read(is, s.tolerance) ||
        !wire::Read(is, stale_counter) || !wire::Read(is, s.last_slope)) {
      EGERIA_LOG(kError) << "freezing-policy state: truncated stage record";
      return false;
    }
    s.smoother = std::make_unique<MovingAverage>(static_cast<size_t>(smoother_window));
    s.smoother->Restore(std::move(smoother_values), smoother_sum,
                        static_cast<size_t>(smoother_count));
    // Every live fitter's window is max(2, policy window): stage state is
    // (re)constructed from window_ at every reset, so restoring with the saved
    // policy window is exact.
    s.fitter = std::make_unique<WindowedLinearFit>(
        static_cast<size_t>(std::max<int32_t>(2, window)));
    if (fitter_values.size() > static_cast<size_t>(std::max<int32_t>(2, window))) {
      EGERIA_LOG(kError) << "freezing-policy state: fitter history exceeds window";
      return false;
    }
    s.fitter->Restore(std::move(fitter_values));
    s.readings = readings;
    s.stale_counter = stale_counter;
  }
  stages_ = std::move(loaded);
  window_ = window;
  frontier_ = frontier;
  any_frozen_ = any_frozen != 0;
  lr_at_first_freeze_ = lr_at_first_freeze;
  return true;
}

std::optional<FreezeDecision> FreezingPolicy::OnLr(float lr, int64_t iter) {
  if (!any_frozen_) {
    return std::nullopt;
  }
  bool fire = false;
  if (lr_annealing_) {
    fire = lr <= kUnfreezeLrFactor * lr_at_first_freeze_;
  } else if (cyclical_hook_) {
    fire = cyclical_hook_(lr, iter);
  }
  if (!fire) {
    return std::nullopt;
  }
  // Unfreeze everything, halve the counter/history window, restart per-module state.
  frontier_ = 0;
  any_frozen_ = false;
  window_ = std::max(2, static_cast<int>(std::lround(
                            static_cast<double>(window_) * kRefreezeWindowFactor)));
  for (int i = 0; i < num_stages_; ++i) {
    ResetStageState(i);
  }
  FreezeDecision d;
  d.kind = FreezeDecision::Kind::kUnfreezeAll;
  d.stage = 0;
  d.iter = iter;
  return d;
}

}  // namespace egeria
