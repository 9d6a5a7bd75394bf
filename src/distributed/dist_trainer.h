// Data-parallel training (the paper's Fig. 5 controller-worker layout at
// process scale): K workers hold model replicas, train on disjoint shards of
// each batch permutation, and synchronize gradients with a real all-reduce.
//
// There is one training loop, Trainer::Run. A rank is a Trainer plus a
// GradientSync over the rank's Transport (src/core/gradient_sync.h): rank 0
// holds the Egeria controller, its frontier is exchanged at the top of every
// iteration, and frozen stages drop out of both backward and the
// synchronization payload (the Fig. 10 traffic saving). TrainRank is the
// adapter that wires one rank, so the same code serves two deployments, both
// over the framed TCP transport (MakeTcpTransport):
//   - TrainDataParallel: the in-process harness — ranks are threads, wired
//     through localhost sockets.
//   - tools/egeria_worker.cc: one rank per OS process, launched by SpawnWorld /
//     scripts/launch_dist.sh.
//
// The two world syncs implement the same reduction contract and the same
// compiled SGD arithmetic, so they train bitwise-identical weights — through
// freezes and unfreezes alike (both drop a stage's momentum when it freezes):
//   - RingSync (default): ZeRO-1. Ring reduce-scatter, the owner's step on its
//     contract chunk of the flattened active space, ring all-gather; both
//     collectives are timed as the rank's comm_wait phase (the signal of
//     `egeria_trace --diagnose`'s straggler verdict). A frontier move re-partitions the shards,
//     so frozen parameters leave the ring payload and per-rank optimizer memory.
//   - StarSync: the sequential reference — rank 0 folds every rank's gradients
//     (GradientAllReducer), then every rank steps a replicated optimizer.
//     In-process only: it reads peers' gradients through shared memory, while
//     the frontier and the initial weights still cross the transport.
#ifndef EGERIA_SRC_DISTRIBUTED_DIST_TRAINER_H_
#define EGERIA_SRC_DISTRIBUTED_DIST_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/gradient_sync.h"
#include "src/core/trainer.h"
#include "src/distributed/allreduce.h"
#include "src/distributed/transport/transport.h"
#include "src/optim/sharded_optimizer.h"

namespace egeria {

// One rank's training configuration: TrainConfig plus the world's wiring.
// Every rank of a world must share it.
struct DistTrainConfig : TrainConfig {
  DistTrainConfig() {
    epochs = 4;
    batch_size = 8;  // per worker
    val_batches = 4;
  }

  int world = 2;

  // Gradient synchronization + optimizer layout (see the file comment).
  enum class Reducer {
    kRingSharded,           // RingSync: ring + ZeRO-1 shards
    kSequentialReference,   // StarSync: rank-0 star reduce + replicated SGD
  };
  Reducer reducer = Reducer::kRingSharded;

  // Unused: nothing reads this field. Gradients are synchronized by one
  // sequential ZeRO-1 round per iteration (reduce-scatter, shard step,
  // all-gather). Kept only because existing callers still assign it.
  bool overlap_comm = true;

  // Unused: nothing reads this field. The TCP transport, the only one, frames
  // and checksums every message itself. Kept only because existing callers
  // still assign it.
  bool frame_integrity = true;

  // Test hook: invoked at the top of every iteration (numbered from 1) on
  // every rank, before a pending checkpoint commit (fault injection for the
  // multi-process launcher tests). Null = no-op.
  std::function<void(int rank, int64_t iter)> iteration_hook;
};

// One entry per shard (re)partition in the ring-sharded path: the initial
// partition plus one per freeze-frontier move. Captures the Fig. 10 scaling
// argument: the ring payload, per-rank optimizer state, AND measured all-reduce
// seconds all shrink as stages freeze.
struct DistReshardEvent {
  int64_t iter = 0;  // first iteration stepped under this partition (0 = start)
  int frontier = 0;
  int64_t active_elems = 0;             // flattened active-parameter elements
  int64_t payload_bytes_per_iter = 0;   // ring payload at this frontier
  int64_t opt_state_bytes_per_rank = 0; // rank 0's velocity shard bytes
  // Measured mean wall seconds rank 0 spent in ring collectives per iteration
  // while this frontier was in effect (i.e. over [iter, next event's iter)).
  double allreduce_seconds_per_iter = 0.0;
};

// What one rank's training produces (its Trainer's TrainResult, flattened for
// the worker's result line). rank 0 additionally validates and carries the
// reshard timeline.
struct RankTrainResult {
  int rank = 0;
  uint64_t params_hash = 0;        // FNV-1a over this rank's final weights
  int final_frontier = 0;
  int64_t iterations = 0;          // last iteration run (counting resumed ones)
  int64_t bytes_synced = 0;        // logical payload (sum of active grad bytes)
  int64_t bytes_full_model = 0;    // payload if nothing were frozen
  int64_t wire_bytes = 0;          // bytes this rank pushed onto its ring link
  double allreduce_seconds = 0.0;  // wall seconds in ring collectives
  double final_score = 0.0;        // rank 0 only
  double final_display = 0.0;      // rank 0 only
  // Per-phase wall seconds for this rank's loop, measured by the same
  // obs::ScopedPhase intervals that emit the trace spans and feed the metrics
  // registry — tools/egeria_trace reconciles merged traces against these
  // (egeria_worker prints them on its EGERIA_RESULT line).
  double data_seconds = 0.0;
  double fp_seconds = 0.0;
  double bp_seconds = 0.0;
  double opt_seconds = 0.0;
  double train_seconds = 0.0;      // the epoch clocks (excludes validation)
  int64_t resumed_from_iter = -1;  // checkpoint iteration resumed from, -1 = fresh
  bool stopped_early = false;      // stop_after_iters ended the run
  // Why the loop ended: ok() for a clean run; otherwise the first transport
  // error this rank observed (peer death, corrupt frame, coordinated abort).
  // On error the model/metrics fields reflect the last completed iteration —
  // no partial collective output is ever consumed.
  TransportStatus status;
  std::vector<DistReshardEvent> reshard_events;  // rank 0, ring-sharded only
  std::unique_ptr<ChainModel> model;             // the trained replica
};

struct DistTrainResult {
  double final_score = 0.0;
  double final_display = 0.0;
  int64_t bytes_synced = 0;        // logical payload (sum of active grad bytes)
  int64_t bytes_full_model = 0;    // payload if nothing were frozen
  int64_t wire_bytes = 0;          // bytes that traversed ring links, summed
                                   // over ranks (0 for the sequential
                                   // reference path)
  double allreduce_seconds = 0.0;  // rank 0's measured collective seconds
  int final_frontier = 0;
  int64_t iterations = 0;
  bool replicas_consistent = false;  // replicas bit-identical at the end
  uint64_t params_hash = 0;          // FNV-1a over replica 0's final weights
  int64_t resumed_from_iter = -1;    // rank 0's resume point (-1 = fresh start)
  bool stopped_early = false;
  // First non-ok rank status (any error forces replicas_consistent = false).
  TransportStatus status;
  std::vector<DistReshardEvent> reshard_events;  // ring-sharded path only
};

// The ZeRO-1 ring sync: one rank's shard of the momentum-SGD state over the
// contract partition of the active suffix.
class RingSync : public GradientSync {
 public:
  RingSync(Transport& transport, float momentum, float weight_decay);

  TransportStatus Repartition(ChainModel& model, int old_frontier, int new_frontier,
                              int64_t first_iter) override;
  TransportStatus Step(const std::vector<Parameter*>& active, float lr,
                       double* opt_seconds) override;
  int64_t StateBytes() const override { return shard_opt_.StateBytes(); }
  std::function<bool(const std::string& step_dir)> CaptureState(
      ChainModel& model, Checkpoint* model_state) override;
  std::string RankStateFile(int rank) const override;
  // Re-folds the saved shards through the contract partition at THIS world
  // size (the saved world may differ: elastic restart).
  bool RestoreState(ChainModel& model, const Checkpoint& model_state,
                    const CkptManifest& m) override;

  int64_t BytesSynced() const { return bytes_synced_; }
  int64_t WireBytes() const { return ring_.TotalWireBytes(); }
  double CommSeconds() const { return ring_.CommSeconds(); }
  // Rank 0's partition timeline, its last segment closed after `last_iter`.
  std::vector<DistReshardEvent> ReshardEvents(int64_t last_iter);

 private:
  // Rank 0: opens a timeline segment at `iter`, closing the previous one.
  void RecordPartition(int64_t iter, int frontier, int64_t active_elems);

  RingAllReducer ring_;
  ShardedSgd shard_opt_;
  int64_t shard_begin_ = 0;
  int64_t shard_end_ = 0;
  int64_t bytes_synced_ = 0;
  std::vector<DistReshardEvent> events_;
  double segment_comm_start_ = 0.0;  // CommSeconds() when the segment opened
};

// The sequential reference: GradientAllReducer's star average, then the
// replicated optimizer on every rank. In-process ranks only.
class StarSync : public LocalSync {
 public:
  StarSync(Transport& transport, GradientAllReducer& reducer,
           std::unique_ptr<Optimizer> optimizer);

  TransportStatus Step(const std::vector<Parameter*>& active, float lr,
                       double* opt_seconds) override;

  int64_t BytesSynced() const { return bytes_synced_; }

 private:
  GradientAllReducer& reducer_;
  int64_t bytes_synced_ = 0;
};

// One rank's training over `transport`: broadcasts rank 0's initial weights,
// builds the configured GradientSync, and runs a Trainer. Collective: every
// rank of the world must call this concurrently with an identical config and
// a deterministic `make_model` (same architecture AND same seed per call).
// `reference_reducer` must be non-null iff cfg.reducer == kSequentialReference
// (in-process threads only).
RankTrainResult TrainRank(
    Transport& transport,
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg,
    GradientAllReducer* reference_reducer = nullptr);

// In-process harness: spawns cfg.world rank threads, wires them into one TCP
// world through a fresh rendezvous file (heartbeat off), and aggregates their
// RankTrainResults.
DistTrainResult TrainDataParallel(
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg);

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_DIST_TRAINER_H_
