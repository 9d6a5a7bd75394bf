// ZeRO-1-style sharded optimizer state for the data-parallel harness.
//
// Each rank owns one reduction-contract chunk of the flattened ACTIVE-parameter
// space and keeps momentum only for that shard, so per-rank optimizer memory is
// ~1/world of the replicated baseline and shrinks further as Egeria freezes
// stages: the freeze frontier re-partitions shards over the surviving suffix,
// migrates momentum for still-active elements to their new owners, and drops
// the frozen prefix's state entirely.
//
// ShardedSgd is ONE rank's shard. Reshard is a collective over the rank's
// Transport: every rank circulates its old velocity shard around the ring (the
// old partition is derivable by every rank from the shared previous
// (frozen, active) pair, so all frame sizes are known a priori) and each rank
// keeps the slices that overlap its new shard — the same migration the
// original shared-memory implementation did by reading peers' vectors, now
// expressed as messages so it works across process boundaries.
//
// The update arithmetic is elementwise-identical to Sgd::Step (the same
// compiled SgdUpdateRange kernels), so a sharded run is bitwise-identical to
// the replicated reference path as long as gradients arrive through the same
// reduction contract. Both drop a stage's momentum when it freezes, so
// parameters re-activated by an unfreeze restart at zero on both.
#ifndef EGERIA_SRC_OPTIM_SHARDED_OPTIMIZER_H_
#define EGERIA_SRC_OPTIM_SHARDED_OPTIMIZER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/distributed/flat_view.h"
#include "src/distributed/transport/transport.h"

namespace egeria {

class ShardedSgd {
 public:
  ShardedSgd(float momentum, float weight_decay);

  // Collective: partition the active suffix [frozen_elems, frozen_elems +
  // active_elems) of the global flat parameter space into World() contract
  // chunks, migrating momentum between owners over the transport (elements
  // that were frozen or never owned start at zero). Every rank must call this
  // at the same logical step with identical arguments. On ok, `shard`
  // (nullable) receives this rank's shard [begin, end) in ACTIVE-space
  // coordinates (offsets into a FlatParamView over the active parameter
  // list). On a transport error the optimizer state is left UNCHANGED (the
  // old partition still applies) so a recovering caller can retry or unwind.
  TransportStatus Reshard(Transport& transport, int64_t frozen_elems,
                          int64_t active_elems,
                          std::pair<int64_t, int64_t>* shard);

  // Local: momentum-SGD update on active-space range [begin, end), which must
  // lie within this rank's current shard. Arithmetic matches Sgd::Step bitwise.
  void Step(FlatParamView& values, const FlatParamView& grads, int64_t begin,
            int64_t end, float lr);

  // Resident optimizer-state bytes (this rank's velocity shard).
  int64_t StateBytes() const;

  // ---- Checkpoint support ----
  // This rank's velocity shard: its contract chunk of the active space.
  const std::vector<float>& velocity() const { return velocity_; }

  // Local (transport-free) restore: seeds this rank's shard for `rank` of
  // `world` over the partition (frozen_elems, active_velocity.size()) with
  // its contract chunk of `active_velocity`, the whole active space's
  // momentum as a checkpoint saved it. The saving world may have had another
  // size (elastic restart): the chunk is a slice of the one saved vector.
  // Also primes the previous-partition pair so the next freeze-driven
  // Reshard migrates exactly as an uninterrupted run would. Returns the shard
  // bounds in ACTIVE-space coordinates, like Reshard.
  std::pair<int64_t, int64_t> Restore(int rank, int world, int64_t frozen_elems,
                                      const std::vector<float>& active_velocity);

 private:
  float momentum_;
  float weight_decay_;
  std::vector<float> velocity_;  // indexed by global_offset - global_begin_
  int64_t global_begin_ = 0;
  int64_t global_end_ = 0;
  int64_t frozen_elems_ = 0;
  // The partition every rank agreed on at the previous Reshard; -1 = none yet.
  // Lets each rank reconstruct all peers' old shard bounds without metadata
  // exchange during migration.
  int64_t prev_frozen_ = -1;
  int64_t prev_active_ = -1;
};

}  // namespace egeria

#endif  // EGERIA_SRC_OPTIM_SHARDED_OPTIMIZER_H_
