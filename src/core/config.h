// Egeria configuration (paper S4.2.2 "Hyperparameters guideline").
#ifndef EGERIA_SRC_CORE_CONFIG_H_
#define EGERIA_SRC_CORE_CONFIG_H_

#include <cstdint>

#include "src/nn/module.h"
#include "src/quant/quantized_modules.h"

namespace egeria {

struct EgeriaConfig {
  // n: plasticity evaluation interval in iterations (also the bootstrap-monitor
  // interval). Paper guideline: total_iters / (W*2) / num_modules / 1.75.
  int64_t eval_interval_n = 50;

  // W: number of consecutive low-slope evaluations required to freeze; also the
  // moving-average / linear-fit window and history buffer length.
  int window_w = 10;

  // T: per-module slope tolerance = tolerance_coef * max |slope| over the module's
  // first 3 readings (paper: 20%).
  double tolerance_coef = 0.2;

  // Upper bound on the bootstrapping stage, in iterations; the knowledge-guided
  // stage starts no later than this even if the loss is still moving (the
  // stage otherwise ends on the loss's change rate, trainer.cc). <0 disables
  // the cap (pure change-rate criterion).
  int64_t max_bootstrap_iters = -1;

  // Reference model precision and quantization mode (int8 static for conv nets,
  // int8 dynamic for NLP models; fp16/fp32 fallbacks, S4.1.3 and Table 2).
  Precision reference_precision = Precision::kInt8;
  QuantMode quant_mode = QuantMode::kStatic;

  // Update the reference model from a fresh snapshot every this many plasticity
  // evaluations (the paper's periodic update). Both extremes misbehave: a stale
  // reference amplifies SGD fluctuations (paper S4.1.3), while refreshing every
  // 1-2 evals makes plasticity collapse to quantization noise — falsely stationary
  // while the model still improves — causing premature freezes.
  // ~2x window_w is a good default.
  int ref_update_evals = 10;

  // Forward-pass skipping via the frozen-feature store (S4.3): an in-memory
  // table of the frozen boundary per sample. In a world of W > 1 ranks every
  // rank keeps its own store. Its byte budget is a constant of the Trainer
  // (trainer.cc).
  bool enable_cache = true;
};

// The head never freezes: the last stage of a chain (the head and its loss
// module) stays trainable under every freezing policy, so the highest stage
// that may freeze is NumStages() - 1 - kProtectedTailStages.
constexpr int kProtectedTailStages = 1;

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_CONFIG_H_
