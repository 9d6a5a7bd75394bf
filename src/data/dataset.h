// Dataset interface. All datasets here are procedurally generated substitutes for the
// paper's corpora (ImageNet/CIFAR-10/VOC/WMT16/SQuAD are not available
// offline). Determinism contract: GetBatch(indices) depends only on (seed,
// indices) — including augmentation — so a sample is bit-identical across epochs.
// That is the property the activation cache relies on (paper S4.3: stateless random
// augmentation keeps inputs repeatable).
#ifndef EGERIA_SRC_DATA_DATASET_H_
#define EGERIA_SRC_DATA_DATASET_H_

#include <cstdint>
#include <vector>

#include "src/data/batch.h"

namespace egeria {

class Dataset {
 public:
  virtual ~Dataset() = default;
  virtual int64_t Size() const = 0;
  virtual Batch GetBatch(const std::vector<int64_t>& indices) const = 0;

  // Epoch-aware fetch for datasets whose augmentation stream varies by epoch.
  // Contract: two GetBatchAt calls with equal (AugmentationSignature(epoch),
  // indices) return bitwise-identical samples. The default forwards to
  // GetBatch — epoch-independent data.
  virtual Batch GetBatchAt(int64_t epoch, const std::vector<int64_t>& indices) const {
    (void)epoch;
    return GetBatch(indices);
  }

  // Summarizes everything about epoch `epoch`'s augmentation that affects
  // sample content. A signature CONSTANT across epochs certifies the epoch-
  // determinism the frozen-feature store relies on (cached boundary
  // activations stay valid epoch to epoch); a varying signature tells the
  // store to decline. 0 (the default) = no augmentation / deterministic.
  virtual uint64_t AugmentationSignature(int64_t epoch) const {
    (void)epoch;
    return 0;
  }
};

}  // namespace egeria

#endif  // EGERIA_SRC_DATA_DATASET_H_
