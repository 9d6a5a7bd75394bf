// Egeria configuration (paper S4.2.2 "Hyperparameters guideline").
#ifndef EGERIA_SRC_CORE_CONFIG_H_
#define EGERIA_SRC_CORE_CONFIG_H_

#include <cstdint>
#include <string>

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

  // Bootstrapping stage ends when the training-loss change rate drops below this
  // (paper: "permissively set to 10%").
  double bootstrap_change_rate = 0.10;

  // Upper bound on the bootstrapping stage, in iterations; the knowledge-guided
  // stage starts no later than this even if the loss is still moving. <0 disables
  // the cap (pure change-rate criterion).
  int64_t max_bootstrap_iters = -1;

  // Unfreeze-all triggers when lr <= unfreeze_lr_factor * lr_at_first_freeze under an
  // annealing schedule ("LR has dropped over a factor of 10", S4.2.2).
  double unfreeze_lr_factor = 0.1;

  // W is multiplied by this after each unfreeze ("halve the counter and history
  // buffer W for refreezing").
  double refreeze_window_factor = 0.5;

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

  // Forward-pass skipping via the persistent frozen-feature store (S4.3).
  // cache_dir empty: with checkpointing enabled the store lives under
  // <ckpt.dir>/feature_store and survives crash/resume (adopted back by its
  // generation-keyed manifest); otherwise an ephemeral per-process temp
  // directory is used. A non-empty cache_dir is always treated as persistent.
  // In a world of W > 1 ranks every rank keeps its own store, in the chosen
  // directory suffixed "_r<rank>".
  bool enable_cache = true;
  std::string cache_dir;
  int64_t cache_memory_batches = 5;  // "the cache only stores the recent five
                                     // mini-batches" in memory
  int64_t cache_max_disk_bytes = int64_t{4} << 30;  // spill budget (FIFO evict)
  int64_t prefetch_batches = 2;

  // Never freeze the last `protected_tail` stages (the head / loss module).
  int protected_tail = 1;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_CONFIG_H_
