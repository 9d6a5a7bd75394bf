// Unified tracing & metrics layer (src/obs/): span ordering and nesting,
// concurrent emission from many threads (this suite runs under TSan in CI,
// label `obs`), the disabled-tracer overhead bound, histogram bucket edge
// cases, and the trainer-level pin that tracing on vs off leaves trained
// weights bitwise identical.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/freeze_baselines.h"
#include "src/core/module_partitioner.h"
#include "src/core/trainer.h"
#include "src/data/synthetic_image.h"
#include "src/models/resnet.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/optim/lr_scheduler.h"
#include "src/tensor/serialize.h"

namespace egeria {
namespace {

// Restores a clean tracer/metrics state around each test in this suite.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The trainer calls trace::InitFromEnv(); a stray EGERIA_TRACE in the
    // test environment must not flip the tracing-off halves of these tests.
    unsetenv("EGERIA_TRACE");
    trace::SetEnabled(false);
    trace::ResetForTest();
    obs::ResetAllForTest();
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::ResetForTest();
    obs::ResetAllForTest();
  }
};

// Extracts the value of a numeric field from the (single) serialized event
// line whose name field matches `name`. Returns false if no such line.
bool EventField(const std::string& json, const std::string& name,
                const char* field, double* out) {
  const std::string name_pat = "\"name\":\"" + name + "\"";
  size_t line_start = 0;
  while (line_start < json.size()) {
    size_t line_end = json.find('\n', line_start);
    if (line_end == std::string::npos) {
      line_end = json.size();
    }
    const std::string line = json.substr(line_start, line_end - line_start);
    if (line.rfind("{\"ph\":", 0) == 0 && line.find(name_pat) != std::string::npos) {
      const std::string pat = std::string("\"") + field + "\":";
      const size_t p = line.find(pat);
      if (p == std::string::npos) {
        return false;
      }
      *out = std::strtod(line.c_str() + p + pat.size(), nullptr);
      return true;
    }
    line_start = line_end + 1;
  }
  return false;
}

TEST_F(ObsTest, SpanNestingAndCompletionOrder) {
  trace::SetEnabled(true);
  {
    trace::Span outer("test", "outer");
    ASSERT_TRUE(outer.active());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      trace::Span inner("test", "inner");
      inner.SetArgs("{\"k\":%d}", 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trace::AddInstant("test", "marker");
  const std::string json = trace::FlushToString();

  double outer_ts = 0.0;
  double outer_dur = 0.0;
  double inner_ts = 0.0;
  double inner_dur = 0.0;
  ASSERT_TRUE(EventField(json, "outer", "ts", &outer_ts));
  ASSERT_TRUE(EventField(json, "outer", "dur", &outer_dur));
  ASSERT_TRUE(EventField(json, "inner", "ts", &inner_ts));
  ASSERT_TRUE(EventField(json, "inner", "dur", &inner_dur));
  // The inner span's interval nests strictly inside the outer's.
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
  // Events land in completion order: inner closes before outer.
  EXPECT_LT(json.find("\"name\":\"inner\""), json.find("\"name\":\"outer\""));
  // The instant is thread-scoped and the args survived.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("{\"k\":7}"), std::string::npos);
  // Flush cleared the buffers.
  EXPECT_EQ(trace::BufferedEventCount(), 0U);
}

TEST_F(ObsTest, DisabledTracerEmitsNothing) {
  ASSERT_FALSE(trace::Enabled());
  {
    EGERIA_TRACE_SCOPE("test", "noop");
    trace::Span span("test", "noop2");
    EXPECT_FALSE(span.active());
    span.SetArgs("{\"x\":%d}", 1);  // must be a safe no-op
  }
  trace::AddInstant("test", "noop3");
  trace::AddInstantF("test", "noop4", "{\"x\":%d}", 2);
  EXPECT_EQ(trace::BufferedEventCount(), 0U);
}

// A span opened while enabled still closes safely after a disable (its event
// is simply dropped by the emit-time check or recorded; either way no crash,
// and a span opened while disabled never emits even if tracing turns on).
TEST_F(ObsTest, EnableDisableRaceAtSpanBoundaries) {
  trace::Span late("test", "opened_disabled");
  trace::SetEnabled(true);
  { trace::Span early("test", "opened_enabled"); }
  trace::SetEnabled(false);
  // `late` destructs here with tracing off; it was inactive from birth.
  EXPECT_FALSE(late.active());
  const std::string json = trace::FlushToString();
  EXPECT_NE(json.find("opened_enabled"), std::string::npos);
  EXPECT_EQ(json.find("opened_disabled"), std::string::npos);
}

// ≥8 threads hammer spans, instants, and metrics concurrently. The per-thread
// buffers make this race-free by construction — this is the test CI runs
// under ThreadSanitizer (ctest -L obs).
TEST_F(ObsTest, ConcurrentEmitManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 1000;
  trace::SetEnabled(true);
  obs::Counter& counter = obs::GetCounter("obs_test.concurrent");
  obs::Histogram& hist = obs::GetHistogram("obs_test.concurrent_s");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &counter, &hist] {
      trace::SetThreadName(("worker" + std::to_string(t)).c_str());
      for (int i = 0; i < kSpansPerThread; ++i) {
        trace::Span span("test", "work");
        span.SetArgs("{\"i\":%d}", i);
        counter.Add(1);
        hist.Observe(1e-5);
        if (i % 100 == 0) {
          trace::AddInstantF("test", "tick", "{\"i\":%d}", i);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Get(), kThreads * kSpansPerThread);
  EXPECT_EQ(hist.Count(), kThreads * kSpansPerThread);
  // Every span landed: well under the per-thread cap, so zero drops.
  EXPECT_EQ(trace::DroppedEvents(), 0U);
  EXPECT_GE(trace::BufferedEventCount(),
            static_cast<size_t>(kThreads * kSpansPerThread));
  const std::string json = trace::FlushToString();
  EXPECT_NE(json.find("\"worker0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker7\""), std::string::npos);
}

// Low-priority events saturate at the 7/8 watermark and are counted; normal
// events keep landing past it (the reconciliation spans can never be crowded
// out by high-volume GEMM detail).
TEST_F(ObsTest, LowPriorityLaneDropsBeforeNormalLane) {
  trace::SetEnabled(true);
  constexpr int kFlood = 70000;  // > 7/8 of the 65536-event buffer
  for (int i = 0; i < kFlood; ++i) {
    trace::AddCompleteLowPrio("test", "detail", 0, 1);
  }
  EXPECT_GT(trace::DroppedEvents(), 0U);
  const size_t before = trace::BufferedEventCount();
  trace::AddComplete("test", "phase", 0, 1);
  EXPECT_EQ(trace::BufferedEventCount(), before + 1);
  trace::ResetForTest();
}

// Disabled-tracer overhead: the EGERIA_TRACE_SCOPE fast path is one relaxed
// atomic load. The bound is deliberately generous (2 µs/span) so it holds
// under TSan/ASan and loaded CI machines while still catching a regression
// that puts a lock or an allocation on the disabled path.
TEST_F(ObsTest, DisabledSpanOverheadBounded) {
  ASSERT_FALSE(trace::Enabled());
  constexpr int kIters = 200000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    EGERIA_TRACE_SCOPE("test", "disabled");
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed / kIters, 2e-6)
      << "disabled EGERIA_TRACE_SCOPE costs " << elapsed / kIters * 1e9
      << " ns/span";
  EXPECT_EQ(trace::BufferedEventCount(), 0U);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  using H = obs::Histogram;
  // Underflow: zero, negative, and anything below the 1µs first edge.
  EXPECT_EQ(H::BucketIndex(0.0), -1);
  EXPECT_EQ(H::BucketIndex(-1.0), -1);
  EXPECT_EQ(H::BucketIndex(0.9e-6), -1);
  // Exact power-of-two edges belong to the bucket they open.
  EXPECT_EQ(H::BucketIndex(1e-6), 0);
  EXPECT_EQ(H::BucketIndex(2e-6), 1);
  EXPECT_EQ(H::BucketIndex(4e-6), 2);
  EXPECT_EQ(H::BucketIndex(H::BucketUpperEdge(9)), 10);
  // Just inside / just under an edge.
  EXPECT_EQ(H::BucketIndex(1.999e-6), 0);
  EXPECT_EQ(H::BucketIndex(3.999e-6), 1);
  // The last finite bucket and overflow.
  const double last_edge = H::BucketUpperEdge(H::kNumBuckets - 1);
  EXPECT_EQ(H::BucketIndex(last_edge * 0.999), H::kNumBuckets - 1);
  EXPECT_EQ(H::BucketIndex(last_edge), H::kNumBuckets);
  EXPECT_EQ(H::BucketIndex(1e9), H::kNumBuckets);

  obs::Histogram& h = obs::GetHistogram("obs_test.edges_s");
  h.Observe(0.0);
  h.Observe(-5.0);
  h.Observe(1e-6);
  h.Observe(1.5e-6);
  h.Observe(2e-6);
  h.Observe(1e9);
  EXPECT_EQ(h.Count(), 6);
  EXPECT_EQ(h.BucketCount(-1), 2);
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(H::kNumBuckets), 1);
  // Negative observations do not poison the sum (clamped out); the rest
  // accumulate in integer nanoseconds.
  EXPECT_GT(h.Sum(), 0.0);
}

TEST_F(ObsTest, HistogramQuantileEdgeCases) {
  using H = obs::Histogram;
  obs::Histogram& h = obs::GetHistogram("obs_test.quant_s");
  // Empty histogram: every quantile is 0 by convention.
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);

  // One observation at 1.5 ms lands in bucket [1.024ms, 2.048ms); quantiles
  // interpolate linearly across exactly that bucket.
  h.Observe(1.5e-3);
  const double lo = 1.024e-3;
  const double hi = 2.048e-3;
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), lo);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), lo + 0.5 * (hi - lo));
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), hi);
  // Out-of-range q clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.Quantile(-3.0), lo);
  EXPECT_DOUBLE_EQ(h.Quantile(7.0), hi);

  // Two equally-filled adjacent buckets: the median sits exactly on the
  // shared edge, p90 is 80% into the upper bucket.
  h.Reset();
  for (int i = 0; i < 100; ++i) h.Observe(1.5e-3);  // bucket [1.024, 2.048)ms
  for (int i = 0; i < 100; ++i) h.Observe(3.0e-3);  // bucket [2.048, 4.096)ms
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.048e-3);
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 2.048e-3 + 0.8 * 2.048e-3);
  // Monotone in q.
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
  EXPECT_LE(h.Quantile(0.9), h.Quantile(0.99));

  // Underflow mass interpolates over [0, first edge).
  h.Reset();
  for (int i = 0; i < 4; ++i) h.Observe(0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.5 * H::kFirstEdge);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), H::kFirstEdge);

  // Overflow mass saturates at the last finite edge — the estimator never
  // invents values beyond the scale.
  h.Reset();
  h.Observe(1e9);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), H::BucketUpperEdge(H::kNumBuckets - 1));
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), H::BucketUpperEdge(H::kNumBuckets - 1));
}

TEST_F(ObsTest, ScopedPhaseFeedsHistogramAccumulatorAndTrace) {
  trace::SetEnabled(true);
  obs::Histogram& h = obs::GetHistogram("obs_test.phase_s");
  double accum = 0.0;
  {
    obs::ScopedPhase phase("test", "phase", &h, &accum);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    phase.Stop();
    phase.Stop();  // idempotent
  }
  EXPECT_EQ(h.Count(), 1);
  EXPECT_GT(accum, 0.0);
  // All three sinks saw the SAME interval (sum truncates to whole ns).
  EXPECT_NEAR(h.Sum(), accum, 2e-9);
  double dur_us = 0.0;
  const std::string json = trace::FlushToString();
  ASSERT_TRUE(EventField(json, "phase", "dur", &dur_us));
  EXPECT_NEAR(dur_us * 1e-6, accum, 1e-9);
}

TEST_F(ObsTest, SnapshotFormats) {
  obs::GetCounter("obs_test.snap_counter").Add(3);
  obs::GetGauge("obs_test.snap_gauge").Set(2.5);
  obs::GetHistogram("obs_test.snap_s").Observe(1e-3);
  const std::string text = obs::SnapshotText();
  EXPECT_NE(text.find("counter obs_test.snap_counter = 3"), std::string::npos);
  EXPECT_NE(text.find("gauge obs_test.snap_gauge = 2.500000"),
            std::string::npos);
  EXPECT_NE(text.find("histogram obs_test.snap_s count=1"), std::string::npos);
  // Derived quantiles: 1 ms lands in bucket [512µs, 1024µs); the lone
  // observation puts every quantile at the interpolated bucket position.
  EXPECT_NE(text.find("p50_s=0.000768"), std::string::npos);
  EXPECT_NE(text.find("p90_s=0.000973"), std::string::npos);
  EXPECT_NE(text.find("p99_s="), std::string::npos);
}

// ---- trainer-level pin: tracing must be a pure observer --------------------

uint64_t HashModelParams(const ChainModel& model) {
  uint64_t hash = kFnv64Offset;
  for (const Parameter* p :
       const_cast<ChainModel&>(model).ParamsFrom(0)) {
    hash = Fnv1a64(p->value.Data(),
                   static_cast<size_t>(p->value.NumEl()) * sizeof(float), hash);
  }
  return hash;
}

uint64_t RunTinyTraining() {
  Rng rng(11);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 1;
  mcfg.base_width = 8;
  mcfg.num_classes = 4;
  PartitionConfig pcfg;
  pcfg.target_modules = 4;
  auto model =
      PartitionIntoChain("resnet", BuildCifarResNetBlocks(mcfg, rng), pcfg);
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 64;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.noise_std = 0.5F;
  SyntheticImageDataset train(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 32;
  SyntheticImageDataset val(vcfg);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 16;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.val_batches = 2;
  Trainer trainer(*model, train, val, cfg);
  trainer.Run();
  return HashModelParams(*model);
}

// A traced freezing run with the feature store on must show the store serving
// in all three sinks: TrainResult, the cache.fp_skips counter, and fp_skip
// instants (plus frozen_fp populate spans) in the trace itself.
TEST_F(ObsTest, TracedFreezingRunEmitsFeatureStoreSkips) {
  trace::SetEnabled(true);
  Rng rng(12);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 1;
  mcfg.base_width = 8;
  mcfg.num_classes = 4;
  PartitionConfig pcfg;
  pcfg.target_modules = 4;
  auto model =
      PartitionIntoChain("resnet", BuildCifarResNetBlocks(mcfg, rng), pcfg);
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 64;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.noise_std = 0.5F;
  SyntheticImageDataset train(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 32;
  SyntheticImageDataset val(vcfg);
  TrainConfig cfg;
  cfg.epochs = 3;  // epoch 0 populates the store, epochs 1-2 serve from it
  cfg.batch_size = 16;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.val_batches = 1;
  cfg.enable_egeria = true;
  cfg.egeria.enable_cache = true;
  // Neutralize the controller; the static hook owns the frontier (the same
  // pattern as the fig09 smoke and the trainer integration tests).
  cfg.egeria.eval_interval_n = int64_t{1} << 20;
  cfg.egeria.max_bootstrap_iters = -1;
  StaticFreezeHook hook(/*epoch=*/0, /*stage=*/1);
  Trainer trainer(*model, train, val, cfg);
  trainer.SetFreezeHook(&hook);
  const TrainResult result = trainer.Run();

  ASSERT_GT(result.fp_skip_count, 0);
  EXPECT_EQ(obs::CounterValue("cache.fp_skips"), result.fp_skip_count);
  const std::string json = trace::FlushToString();
  EXPECT_NE(json.find("\"name\":\"fp_skip\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"frozen_fp\""), std::string::npos);
}

TEST_F(ObsTest, TrainingHashIdenticalTracingOnVsOff) {
  trace::SetEnabled(false);
  const uint64_t hash_off = RunTinyTraining();

  trace::SetEnabled(true);
  const uint64_t hash_on = RunTinyTraining();
  // The traced run actually recorded the trainer phases...
  EXPECT_GT(trace::BufferedEventCount(), 0U);
  EXPECT_GT(obs::HistogramCount("trainer.fp_s"), 0);
  trace::ResetForTest();
  trace::SetEnabled(false);

  // ...and observed without perturbing: bitwise-identical trained weights.
  EXPECT_EQ(hash_on, hash_off);
}

}  // namespace
}  // namespace egeria
