#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace egeria {
namespace obs {
namespace {

struct Registry {
  std::mutex mu;
  // std::map keeps snapshots sorted by name; unique_ptr keeps references
  // stable across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

void FormatSeconds(char* buf, size_t cap, double s) {
  std::snprintf(buf, cap, "%.6f", s);
}

}  // namespace

void Histogram::Observe(double seconds) {
  int idx = BucketIndex(seconds);
  buckets_[idx + 1].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double ns = seconds * 1e9;
  int64_t add = 0;
  if (ns > 0) {
    add = ns >= static_cast<double>(std::numeric_limits<int64_t>::max())
              ? std::numeric_limits<int64_t>::max()
              : static_cast<int64_t>(ns);
  }
  if (add != 0) sum_ns_.fetch_add(add, std::memory_order_relaxed);
}

int64_t Histogram::BucketCount(int index) const {
  if (index < -1 || index > kNumBuckets) return 0;
  return buckets_[index + 1].load(std::memory_order_relaxed);
}

double Histogram::BucketUpperEdge(int index) {
  if (index < 0) return kFirstEdge;
  if (index >= kNumBuckets) return std::numeric_limits<double>::infinity();
  return kFirstEdge * static_cast<double>(int64_t{1} << (index + 1));
}

int Histogram::BucketIndex(double seconds) {
  if (!(seconds >= kFirstEdge)) return -1;  // NaN/negative/zero → underflow
  // floor(log2(seconds / 1µs)); exact powers of two land in the bucket whose
  // lower edge they are.
  int idx = std::ilogb(seconds / kFirstEdge);
  if (idx >= kNumBuckets) return kNumBuckets;
  return idx;
}

double Histogram::Quantile(double q) const {
  if (!(q >= 0.0)) q = 0.0;  // NaN → 0
  if (q > 1.0) q = 1.0;
  const int64_t count = Count();
  if (count <= 0) return 0.0;
  // The q-quantile is the value at (fractional) position q·count in the
  // sorted sample; walk the cumulative counts to the bucket containing it and
  // interpolate linearly between the bucket's edges.
  const double target = q * static_cast<double>(count);
  int64_t cum = 0;
  for (int i = -1; i <= kNumBuckets; ++i) {
    const int64_t c = BucketCount(i);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      if (i >= kNumBuckets) {
        // Overflow bucket has no finite upper edge; saturate at the last
        // finite edge rather than inventing a value beyond the scale.
        return BucketUpperEdge(kNumBuckets - 1);
      }
      const double lo = (i < 0) ? 0.0 : kFirstEdge * std::ldexp(1.0, i);
      const double hi = BucketUpperEdge(i);
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      return lo + (hi - lo) * (frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac));
    }
    cum += c;
  }
  return BucketUpperEdge(kNumBuckets - 1);  // racing observes drained us dry
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

Counter& GetCounter(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto& slot = reg.counters[name];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

Gauge& GetGauge(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto& slot = reg.gauges[name];
  if (!slot) slot.reset(new Gauge());
  return *slot;
}

Histogram& GetHistogram(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto& slot = reg.histograms[name];
  if (!slot) slot.reset(new Histogram());
  return *slot;
}

int64_t CounterValue(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.counters.find(name);
  return it == reg.counters.end() ? 0 : it->second->Get();
}

double HistogramSum(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.histograms.find(name);
  return it == reg.histograms.end() ? 0.0 : it->second->Sum();
}

int64_t HistogramCount(const std::string& name) {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.histograms.find(name);
  return it == reg.histograms.end() ? 0 : it->second->Count();
}

std::string SnapshotText() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::ostringstream out;
  char num[64];
  for (const auto& kv : reg.counters) {
    out << "counter " << kv.first << " = " << kv.second->Get() << "\n";
  }
  for (const auto& kv : reg.gauges) {
    FormatSeconds(num, sizeof(num), kv.second->Get());
    out << "gauge " << kv.first << " = " << num << "\n";
  }
  for (const auto& kv : reg.histograms) {
    const Histogram& h = *kv.second;
    int64_t count = h.Count();
    FormatSeconds(num, sizeof(num), h.Sum());
    out << "histogram " << kv.first << " count=" << count << " sum_s=" << num;
    if (count > 0) {
      FormatSeconds(num, sizeof(num), h.Sum() / static_cast<double>(count));
      out << " mean_s=" << num;
      FormatSeconds(num, sizeof(num), h.Quantile(0.50));
      out << " p50_s=" << num;
      FormatSeconds(num, sizeof(num), h.Quantile(0.90));
      out << " p90_s=" << num;
      FormatSeconds(num, sizeof(num), h.Quantile(0.99));
      out << " p99_s=" << num;
      out << " buckets:";
      for (int i = -1; i <= Histogram::kNumBuckets; ++i) {
        int64_t c = h.BucketCount(i);
        if (c == 0) continue;
        double edge = Histogram::BucketUpperEdge(i);
        if (i >= Histogram::kNumBuckets) {
          std::snprintf(num, sizeof(num), " le_inf=%lld",
                        static_cast<long long>(c));
        } else {
          std::snprintf(num, sizeof(num), " le_%.6g=%lld", edge,
                        static_cast<long long>(c));
        }
        out << num;
      }
    }
    out << "\n";
  }
  return out.str();
}

MetricsSnapshot SnapshotAll() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot snap;
  snap.counters.reserve(reg.counters.size());
  for (const auto& kv : reg.counters) {
    snap.counters.emplace_back(kv.first, kv.second->Get());
  }
  snap.gauges.reserve(reg.gauges.size());
  for (const auto& kv : reg.gauges) {
    snap.gauges.emplace_back(kv.first, kv.second->Get());
  }
  snap.histograms.reserve(reg.histograms.size());
  for (const auto& kv : reg.histograms) {
    const Histogram& h = *kv.second;
    HistogramSnapshot hs;
    hs.name = kv.first;
    hs.count = h.Count();
    hs.sum_s = h.Sum();
    hs.p50_s = h.Quantile(0.50);
    hs.p90_s = h.Quantile(0.90);
    hs.p99_s = h.Quantile(0.99);
    for (int i = -1; i <= Histogram::kNumBuckets; ++i) {
      const int64_t c = h.BucketCount(i);
      if (c == 0) continue;
      hs.buckets.emplace_back(Histogram::BucketUpperEdge(i), c);
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void ResetAllForTest() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& kv : reg.counters) kv.second->Reset();
  for (auto& kv : reg.gauges) kv.second->Set(0.0);
  for (auto& kv : reg.histograms) kv.second->Reset();
}

}  // namespace obs
}  // namespace egeria
