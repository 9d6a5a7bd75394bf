// Persistent frozen-feature store with prefetching (paper S4.3, Fig. 7, and
// "Rethinking the Potential of Layer Freezing": frozen layers do no forward
// compute at all once their boundary outputs are cached per sample).
//
// When the frozen prefix covers stages [0, l), the boundary activation of stage l-1
// is a pure function of the (deterministically augmented) input sample, so it is
// stored to disk keyed by sample id, and upcoming batches — known in advance from
// the data loader — are prefetched into the in-memory table. The in-memory table
// keeps only the most recent few mini-batches ("the cache only stores the recent
// five mini-batches for minimal memory usage").
//
// The store tracks exactly one composite key at a time:
//
//   (spill format version, boundary stage, generation)
//
// The first two are encoded in every spill filename
// (v<fmt>_s<stage>_<sample id>.egt); `generation` is a caller-computed
// validity token (the Trainer mixes the frozen-prefix parameter hash with the
// data layer's augmentation signature) recorded in a store manifest. SetKey with
// a changed component invalidates; SetKey on a fresh instance whose directory
// already holds a manifest matching the full key ADOPTS the surviving spill
// files instead of sweeping them — this is what lets the store survive a crash
// and serve again after checkpoint resume.
//
// Disk capacity: stores beyond max_disk_bytes evict the oldest entries of the
// current key (FIFO). An evicted sample is forgotten entirely (memory + disk)
// and simply misses again later. Corrupt spill files — partial writes from a
// crash, bit rot — degrade to misses via the checksummed reader, never to
// garbage activations.
#ifndef EGERIA_SRC_CORE_ACTIVATION_CACHE_H_
#define EGERIA_SRC_CORE_ACTIVATION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/thread_pool.h"

namespace egeria {

struct CacheStats {
  int64_t memory_hits = 0;
  int64_t disk_hits = 0;
  int64_t misses = 0;
  int64_t stores = 0;
  int64_t bytes_written = 0;
  int64_t bytes_read = 0;
  int64_t prefetch_loads = 0;
  int64_t evictions = 0;  // disk entries dropped to stay under max_disk_bytes
  int64_t adopted = 0;    // spill files adopted from a previous incarnation
};

class ActivationCache {
 public:
  // Filename/manifest schema version. Bump on any incompatible change to the
  // spill layout; old files then never match the expected prefix and are swept.
  static constexpr uint32_t kSpillFormatVersion = 2;

  // `dir`: on-disk location (created if absent). `memory_entries`: max per-sample
  // slices kept in RAM. `max_disk_bytes`: storage budget (paper: "users can set
  // the storage limit"). `persistent`: keep the directory on destruction so a
  // later incarnation (crash restart, checkpoint resume) can adopt it.
  ActivationCache(std::string dir, int64_t memory_entries,
                  int64_t max_disk_bytes = int64_t{4} << 30, bool persistent = false);
  ~ActivationCache();

  // Declares the composite key being cached. A changed key invalidates
  // everything — except that a key matching the directory's manifest adopts
  // the surviving spill files (crash/resume continuity). Calling with the
  // current key is a cheap no-op (safe per iteration).
  void SetKey(int stage, uint64_t generation);
  int stage() const;
  uint64_t generation() const;

  // Drops all cached state under the current key (prefix weights changed).
  void Clear();

  // True if every id is available (memory or disk).
  bool HasAll(const std::vector<int64_t>& ids) const;

  // Assembles the batch activation [b, ...] from per-sample slices; undefined tensor
  // if any slice is missing.
  Tensor FetchBatch(const std::vector<int64_t>& ids);

  // Splits [b, ...] into per-sample slices, stores to memory + disk (evicting
  // oldest entries past the disk budget).
  void StoreBatch(const std::vector<int64_t>& ids, const Tensor& activations);

  // Schedules background loads of ids from disk into memory.
  void PrefetchAsync(const std::vector<int64_t>& ids);

  CacheStats Stats() const;

 private:
  std::string PathForLocked(int64_t id) const;
  void InsertMemoryLocked(int64_t id, Tensor slice);
  // Drops oldest disk entries until `incoming_bytes` fits; false if it cannot.
  bool EvictForLocked(int64_t incoming_bytes);
  void SweepDirectory();
  // Registers every manifest-matching spill file already in the directory.
  void AdoptDirectory();
  bool ManifestMatches() const;
  void WriteManifest() const;

  std::string dir_;
  int64_t memory_entries_;
  int64_t max_disk_bytes_;
  bool persistent_;
  int stage_ = -1;
  uint64_t generation_ = 0;
  bool configured_ = false;

  mutable std::mutex mutex_;
  std::unordered_map<int64_t, Tensor> memory_;
  std::deque<int64_t> insertion_order_;
  std::unordered_map<int64_t, int64_t> on_disk_;  // id -> spill bytes
  std::deque<int64_t> disk_order_;                // FIFO eviction order
  int64_t disk_bytes_ = 0;
  CacheStats stats_;
  // Bumped on every key change / Clear; in-flight prefetches and disk fetches
  // compare against their snapshot so a stale load never lands under a new key.
  std::atomic<uint64_t> key_epoch_{0};
  std::unique_ptr<ThreadPool> prefetcher_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_ACTIVATION_CACHE_H_
