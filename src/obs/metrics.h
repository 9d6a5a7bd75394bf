// Process-wide metrics registry: counters, gauges, and histograms with fixed
// log-scale (power-of-two) buckets, plus a text snapshot dumped at end-of-run
// and a structured one that the live exporter renders.
//
// All instruments are lock-free on the update path (plain atomics; the
// histogram sum is integer nanoseconds so fetch_add works and totals are
// deterministic under concurrency). The registry itself takes a mutex only on
// name lookup — callers cache the returned reference, which is stable for the
// life of the process (instruments are never erased).
//
// Naming convention: "<subsystem>.<what>[_unit]", e.g. "trainer.fp_s",
// "gemm.calls", "cache.hits". Histograms observing durations use the "_s"
// suffix and observe seconds; Histogram::Sum() is then the total seconds
// spent in that phase, which is what tools/egeria_trace reconciles against
// the per-phase trace spans and TrainResult fields.
#ifndef EGERIA_SRC_OBS_METRICS_H_
#define EGERIA_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace egeria {
namespace obs {

class Counter {
 public:
  void Add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Get() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed log-scale histogram for durations (seconds). Bucket i (0-based)
// covers [1µs·2^i, 1µs·2^(i+1)); 28 buckets span 1µs .. ~134s, with explicit
// underflow (< 1µs, including zero/negative) and overflow buckets. The sum is
// accumulated in integer nanoseconds so concurrent observes produce a
// deterministic total.
class Histogram {
 public:
  static constexpr int kNumBuckets = 28;
  static constexpr double kFirstEdge = 1e-6;  // lower edge of bucket 0

  void Observe(double seconds);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  // Total observed seconds (from the nanosecond accumulator).
  double Sum() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  // index -1 = underflow, 0..kNumBuckets-1 = log buckets,
  // kNumBuckets = overflow.
  int64_t BucketCount(int index) const;
  // Upper edge of bucket `index` in seconds (underflow edge = kFirstEdge;
  // overflow edge = +inf).
  static double BucketUpperEdge(int index);
  // Bucket a value would land in (same index convention). Exposed for tests.
  static int BucketIndex(double seconds);

  // Estimated q-quantile (q in [0,1], clamped) by linear interpolation inside
  // the log bucket holding the q·count-th observation. Conventions:
  // count == 0 → 0.0; mass in the underflow bucket interpolates over
  // [0, kFirstEdge]; a quantile landing in the overflow bucket returns the
  // last finite edge (the estimate saturates rather than inventing a value).
  // Concurrent observes make the result approximate, never crashing.
  double Quantile(double q) const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets + 2] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_ns_{0};
};

// Named instrument lookup. Thread-safe; returned references are stable for
// the process lifetime. Counter/gauge/histogram namespaces are independent,
// but reusing one name across kinds is confusing — don't.
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name);

// Current value of a named instrument without creating it (0 if absent).
// Used for the delta pattern: snapshot a histogram's sum before a run, read
// it again after, attribute the difference to that run.
int64_t CounterValue(const std::string& name);
double HistogramSum(const std::string& name);
int64_t HistogramCount(const std::string& name);

// Human-readable snapshot: one instrument per line, sorted by name.
// Histograms print count/total/mean/p50/p90/p99 plus the non-empty buckets.
std::string SnapshotText();

// Structured enumeration of every instrument for renderers that need more
// than a preformatted string (the Prometheus exporter). Values are read under
// the registry lock but each instrument is sampled independently, so a
// snapshot taken mid-run is approximate in the same way SnapshotText is.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double sum_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  double p99_s = 0.0;
  // (upper_edge_seconds, count) for every non-empty bucket, ascending;
  // +inf edge for the overflow bucket.
  std::vector<std::pair<double, int64_t>> buckets;
};
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};
MetricsSnapshot SnapshotAll();

// Zeroes every registered instrument. Tests only.
void ResetAllForTest();

}  // namespace obs
}  // namespace egeria

#endif  // EGERIA_SRC_OBS_METRICS_H_
