// Mini-batch loader with deterministic epoch shuffling. Each epoch draws the
// sample ids [0, num_samples()) in a permutation fixed by (seed, epoch).
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
  int64_t num_samples() const { return num_samples_; }
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
