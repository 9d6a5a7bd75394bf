#include "src/data/dataloader.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace egeria {

DataLoader::DataLoader(const Dataset& dataset, int64_t batch_size, bool shuffle,
                       uint64_t seed, int64_t limit_samples)
    : dataset_(dataset), batch_size_(batch_size), shuffle_(shuffle), seed_(seed) {
  EGERIA_CHECK(batch_size_ >= 1);
  num_samples_ = dataset_.Size();
  if (limit_samples > 0 && limit_samples < num_samples_) {
    num_samples_ = limit_samples;
  }
  EGERIA_CHECK(num_samples_ >= batch_size_);
  StartEpoch(0);
}

void DataLoader::StartEpoch(int64_t epoch) {
  epoch_ = epoch;
  order_.resize(static_cast<size_t>(num_samples_));
  std::iota(order_.begin(), order_.end(), 0);
  if (shuffle_) {
    Rng rng = Rng::ForKey(seed_, static_cast<uint64_t>(epoch) | (1ULL << 50));
    rng.Shuffle(order_);
  }
}

int64_t DataLoader::NumBatches() const { return num_samples_ / batch_size_; }

std::vector<int64_t> DataLoader::BatchIndices(int64_t batch_idx) const {
  EGERIA_CHECK(batch_idx >= 0 && batch_idx < NumBatches());
  const auto begin = order_.begin() + batch_idx * batch_size_;
  return std::vector<int64_t>(begin, begin + batch_size_);
}

Batch DataLoader::GetBatch(int64_t batch_idx) const {
  static obs::Counter& batches = obs::GetCounter("data.batches");
  batches.Add(1);
  if (!trace::Enabled()) {
    return dataset_.GetBatchAt(epoch_, BatchIndices(batch_idx));
  }
  // Low-prio: nests inside the trainer's "data" phase span, so per-batch
  // detail can drop under pressure without losing the phase total.
  const int64_t start_ns = trace::NowNs();
  Batch batch = dataset_.GetBatchAt(epoch_, BatchIndices(batch_idx));
  char args[64];
  std::snprintf(args, sizeof(args), "{\"epoch\":%lld,\"batch\":%lld}",
                static_cast<long long>(epoch_), static_cast<long long>(batch_idx));
  trace::AddCompleteLowPrio("data", "get_batch", start_ns,
                            trace::NowNs() - start_ns, args);
  return batch;
}

std::vector<int64_t> DataLoader::UpcomingIndices(int64_t next_batch, int64_t count,
                                                 int64_t stride) const {
  static obs::Counter& lookaheads = obs::GetCounter("data.lookahead_calls");
  lookaheads.Add(1);
  std::vector<int64_t> out;
  const int64_t last = std::min(NumBatches(), next_batch + count * stride);
  for (int64_t b = std::max<int64_t>(0, next_batch); b < last; b += stride) {
    const auto idx = BatchIndices(b);
    out.insert(out.end(), idx.begin(), idx.end());
  }
  return out;
}

}  // namespace egeria
