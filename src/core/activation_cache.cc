#include "src/core/activation_cache.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace egeria {

ActivationCache::ActivationCache(int64_t num_samples, int64_t budget_bytes)
    : num_samples_(num_samples), budget_bytes_(budget_bytes) {
  EGERIA_CHECK(num_samples_ >= 1);
}

void ActivationCache::SetKey(int stage, uint64_t generation) {
  if (stage == stage_ && generation == generation_) {
    return;  // Per-iteration fast path.
  }
  stage_ = stage;
  generation_ = generation;
  Clear();
}

void ActivationCache::Clear() {
  table_ = Tensor();
  present_ = std::vector<bool>();
  stats_.bytes_written = 0;
  stats_.table_bytes = 0;
}

bool ActivationCache::HasAll(const std::vector<int64_t>& ids) const {
  if (!table_.Defined()) {
    return false;
  }
  for (int64_t id : ids) {
    EGERIA_CHECK(id >= 0 && id < num_samples_);
    if (!present_[static_cast<size_t>(id)]) {
      return false;
    }
  }
  return true;
}

Tensor ActivationCache::FetchBatch(const std::vector<int64_t>& ids) {
  if (!HasAll(ids)) {
    ++stats_.misses;
    obs::GetCounter("cache.fetch_misses").Add(1);
    return Tensor();
  }
  ++stats_.hits;
  obs::GetCounter("cache.fetch_hits").Add(1);
  std::vector<int64_t> shape = table_.Shape();
  shape[0] = static_cast<int64_t>(ids.size());
  Tensor out = Tensor::Uninitialized(shape);
  const int64_t per = table_.NumEl() / num_samples_;
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* row = table_.Data() + ids[i] * per;
    std::copy(row, row + per, out.Data() + static_cast<int64_t>(i) * per);
  }
  return out;
}

bool ActivationCache::StoreBatch(const std::vector<int64_t>& ids, const Tensor& activations) {
  EGERIA_CHECK(activations.Dim() >= 2);
  EGERIA_CHECK(activations.Size(0) == static_cast<int64_t>(ids.size()));
  std::vector<int64_t> shape = activations.Shape();
  shape[0] = num_samples_;
  const int64_t per = activations.NumEl() / activations.Size(0);
  const int64_t row_bytes = per * static_cast<int64_t>(sizeof(float));
  if (!table_.Defined()) {
    if (num_samples_ * row_bytes > budget_bytes_) {
      return false;
    }
    table_ = Tensor::Uninitialized(shape);
    present_.assign(static_cast<size_t>(num_samples_), false);
    stats_.table_bytes = num_samples_ * row_bytes;
  }
  EGERIA_CHECK_MSG(table_.Shape() == shape, "boundary shape changed under one key");
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t id = ids[i];
    EGERIA_CHECK(id >= 0 && id < num_samples_);
    const float* row = activations.Data() + static_cast<int64_t>(i) * per;
    std::copy(row, row + per, table_.Data() + id * per);
    if (!present_[static_cast<size_t>(id)]) {
      present_[static_cast<size_t>(id)] = true;
      ++stats_.stores;
      stats_.bytes_written += row_bytes;
    }
  }
  return true;
}

}  // namespace egeria
