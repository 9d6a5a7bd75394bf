// System-overhead microbenchmarks (paper S6.5): reference-model generation
// (quantization) latency, activation-cache store/fetch, and one full
// controller-side plasticity evaluation.
#include <benchmark/benchmark.h>

#include "src/core/activation_cache.h"
#include "src/core/module_partitioner.h"
#include "src/metrics/sp_loss.h"
#include "src/models/resnet.h"
#include "src/obs/trace.h"
#include "src/quant/quantized_modules.h"
#include "src/util/rng.h"

#include <filesystem>

namespace egeria {
namespace {

std::unique_ptr<StageChainModel> BenchModel() {
  Rng rng(5);
  CifarResNetConfig cfg;
  cfg.blocks_per_stage = 3;
  cfg.base_width = 8;
  return PartitionIntoChain("m", BuildCifarResNetBlocks(cfg, rng),
                            PartitionConfig{.target_modules = 6});
}

// "Generating and updating the reference model ... takes 0.5s-1.5s" on the paper's
// models; ours is proportionally smaller.
void BM_ReferenceQuantization(benchmark::State& state) {
  auto model = BenchModel();
  Int8Factory factory(QuantMode::kStatic);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->CloneForInference(factory));
  }
}
BENCHMARK(BM_ReferenceQuantization);

void BM_FloatSnapshot(benchmark::State& state) {
  auto model = BenchModel();
  InferenceFactory factory;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->CloneForInference(factory));
  }
}
BENCHMARK(BM_FloatSnapshot);

void BM_PlasticityEvaluation(benchmark::State& state) {
  auto model = BenchModel();
  model->SetTraining(false);
  Int8Factory factory(QuantMode::kStatic);
  auto reference = model->CloneForInference(factory);
  Rng rng(6);
  Tensor input = Tensor::Randn({16, 3, 16, 16}, rng);
  Tensor train_act = model->ForwardPrefix(1, input);
  for (auto _ : state) {
    Tensor ref_act = reference->ForwardPrefix(1, input);
    benchmark::DoNotOptimize(SpLoss(train_act, ref_act));
  }
}
BENCHMARK(BM_PlasticityEvaluation);

void BM_CacheStoreBatch(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "egeria_bench_cache_store").string();
  ActivationCache cache(dir, 256);
  cache.SetKey(0, /*generation=*/1);
  Rng rng(7);
  Tensor act = Tensor::Randn({16, 8, 8, 8}, rng);
  int64_t id = 0;
  for (auto _ : state) {
    std::vector<int64_t> ids(16);
    for (auto& v : ids) {
      v = id++;
    }
    cache.StoreBatch(ids, act);
  }
  state.SetBytesProcessed(state.iterations() * act.NumEl() * sizeof(float));
}
BENCHMARK(BM_CacheStoreBatch);

// The tracer's disabled fast path: one relaxed atomic load + two register
// writes per EGERIA_TRACE_SCOPE. This is the overhead every instrumented hot
// path pays on untraced runs, so it must stay in the low-nanosecond range.
void BM_TraceScopeDisabled(benchmark::State& state) {
  trace::SetEnabled(false);
  for (auto _ : state) {
    EGERIA_TRACE_SCOPE("bench", "disabled");
  }
}
BENCHMARK(BM_TraceScopeDisabled);

// Enabled span: two clock reads + one uncontended per-thread mutex push. The
// buffer is reset each pause so the bench never hits the drop watermark.
void BM_TraceScopeEnabled(benchmark::State& state) {
  trace::SetEnabled(true);
  int since_reset = 0;
  for (auto _ : state) {
    EGERIA_TRACE_SCOPE("bench", "enabled");
    if (++since_reset == 32768) {
      state.PauseTiming();
      trace::ResetForTest();
      since_reset = 0;
      state.ResumeTiming();
    }
  }
  trace::SetEnabled(false);
  trace::ResetForTest();
}
BENCHMARK(BM_TraceScopeEnabled);

void BM_CacheFetchBatchFromMemory(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "egeria_bench_cache_fetch").string();
  ActivationCache cache(dir, 256);
  cache.SetKey(0, /*generation=*/1);
  Rng rng(8);
  Tensor act = Tensor::Randn({16, 8, 8, 8}, rng);
  std::vector<int64_t> ids(16);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int64_t>(i);
  }
  cache.StoreBatch(ids, act);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.FetchBatch(ids));
  }
  state.SetBytesProcessed(state.iterations() * act.NumEl() * sizeof(float));
}
BENCHMARK(BM_CacheFetchBatchFromMemory);

}  // namespace
}  // namespace egeria
