// The frozen-feature store (paper S4.3, Fig. 7, and "Rethinking the Potential
// of Layer Freezing": frozen layers do no forward compute at all once their
// boundary outputs are cached per sample, at a storage cost).
//
// When the frozen prefix covers stages [0, l), the boundary activation of stage
// l-1 is a pure function of the (deterministically augmented) input sample, so
// the store keeps it per sample id. The paper's GPU trainer holds the recent
// five mini-batches on the device and prefetches the rest from host storage;
// this trainer runs on the CPU, where host memory is the tier that serves. So
// the store keeps one dense table for the current key:
//
//   (boundary stage, generation) -> [num_samples, boundary...] tensor
//                                   + one presence bit per sample id
//
// `generation` is a caller-computed validity token (the Trainer mixes the
// frozen-prefix parameter hash with the data layer's augmentation signature).
// SetKey with a changed key, and Clear, free the table.
//
// The table is allocated on the first store under a key. If it would exceed
// the byte budget, the store allocates nothing and never serves under that
// key: StoreBatch reports the refusal and the caller recomputes the prefix.
//
// Only the owning trainer's thread touches a store; each rank has its own.
#ifndef EGERIA_SRC_CORE_ACTIVATION_CACHE_H_
#define EGERIA_SRC_CORE_ACTIVATION_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace egeria {

struct CacheStats {
  int64_t hits = 0;           // FetchBatch calls served
  int64_t misses = 0;         // FetchBatch calls with an id absent
  int64_t stores = 0;         // samples newly stored
  int64_t bytes_written = 0;  // bytes of the samples stored under the current key
  int64_t table_bytes = 0;    // the current key's table; 0 before a store or if refused
  // Always 0: the store has no disk tier. perfbench's runner still reads it
  // (ROADMAP item 1 removes the read).
  int64_t disk_hits = 0;
};

class ActivationCache {
 public:
  // Sample ids are in [0, num_samples). `budget_bytes` bounds the table.
  ActivationCache(int64_t num_samples, int64_t budget_bytes);

  // Declares the key being cached; a changed key frees the table. Calling
  // with the current key is a cheap no-op (safe per iteration).
  void SetKey(int stage, uint64_t generation);
  int stage() const { return stage_; }

  // Frees the table, keeping the key (prefix weights changed).
  void Clear();

  // True if every id is stored under the current key.
  bool HasAll(const std::vector<int64_t>& ids) const;

  // Assembles the batch activation [b, ...] from the ids' rows; undefined
  // tensor if any id is absent.
  Tensor FetchBatch(const std::vector<int64_t>& ids);

  // Copies row i of `activations` [b, ...] into the table under ids[i].
  // Returns false, storing nothing, if the key's table would exceed the budget.
  bool StoreBatch(const std::vector<int64_t>& ids, const Tensor& activations);

  CacheStats Stats() const { return stats_; }

 private:
  int64_t num_samples_;
  int64_t budget_bytes_;
  int stage_ = -1;
  uint64_t generation_ = 0;
  Tensor table_;               // [num_samples, boundary...]; undefined until stored
  std::vector<bool> present_;  // one bit per sample id while table_ is defined
  CacheStats stats_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_ACTIVATION_CACHE_H_
