// Mini-batch loader with deterministic epoch shuffling and a look-ahead API.
//
// "Before an iteration, the data loader samples future mini-batches in advance ...
// unlike typical cache systems, we actually know the future" (paper S4.3). The
// activation prefetcher calls UpcomingIndices() to pull the sample ids of batches
// that have not been consumed yet and stage their cached activations.
#ifndef EGERIA_SRC_DATA_DATALOADER_H_
#define EGERIA_SRC_DATA_DATALOADER_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"

namespace egeria {

class DataLoader {
 public:
  DataLoader(const Dataset& dataset, int64_t batch_size, bool shuffle, uint64_t seed,
             int64_t limit_samples = -1);

  // Rebuilds the epoch permutation (deterministic in (seed, epoch)) and makes
  // `epoch` the one GetBatch fetches from (epoch-varying augmentation).
  void StartEpoch(int64_t epoch);

  int64_t NumBatches() const;
  int64_t batch_size() const { return batch_size_; }
  int64_t epoch() const { return epoch_; }

  // The dataset's augmentation signature for the current epoch (the frozen-
  // feature store's cacheability input; see Dataset::AugmentationSignature).
  uint64_t AugmentationSignature() const {
    return dataset_.AugmentationSignature(epoch_);
  }

  // Sample ids of batch `batch_idx` within the current epoch.
  std::vector<int64_t> BatchIndices(int64_t batch_idx) const;
  Batch GetBatch(int64_t batch_idx) const;

  // Sample ids of up to `count` upcoming batches next_batch, next_batch +
  // stride, ... — the prefetcher's window into the future. A data-parallel
  // rank consumes every world-th batch, so it looks ahead with stride = world.
  std::vector<int64_t> UpcomingIndices(int64_t next_batch, int64_t count,
                                       int64_t stride = 1) const;

 private:
  const Dataset& dataset_;
  int64_t batch_size_;
  bool shuffle_;
  uint64_t seed_;
  int64_t num_samples_;
  int64_t epoch_ = 0;
  std::vector<int64_t> order_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_DATA_DATALOADER_H_
