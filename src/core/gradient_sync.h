// GradientSync: the training loop's one point of contact with other ranks.
//
// Trainer::Run is the only training loop. What differs between a
// single-process run and a data-parallel rank is how the rank turns its local
// gradients into a parameter update, and the few control-plane collectives
// the loop needs. Freezing and synchronization are plug-ins to
// that loop (Composer's LayerFreezing shape): the trainer decides the
// frontier, the sync owns the optimizer layout for the active suffix.
//
// Three implementations share this interface:
//   - LocalSync (below): world 1, the replicated Optimizer (SGD or Adam).
//   - StarSync (src/distributed/dist_trainer.h): the sequential reference —
//     StarAllReduce gathers every rank's gradients over the transport and
//     averages them, then the same replicated optimizer steps on every rank.
//   - RingSync (src/distributed/dist_trainer.h): ZeRO-1 — ring
//     reduce-scatter, the owner's step on its shard, ring all-gather; the
//     shard map is repartitioned whenever the frontier moves.
//
// The control-plane collectives (Broadcast, Barrier) and the checkpoint
// capture's gather run over the transport given at construction and are
// no-ops at world 1. Every rank must call each collective at the same
// logical step.
#ifndef EGERIA_SRC_CORE_GRADIENT_SYNC_H_
#define EGERIA_SRC_CORE_GRADIENT_SYNC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/distributed/transport/transport.h"
#include "src/models/chain_model.h"
#include "src/optim/optimizer.h"
#include "src/tensor/serialize.h"

namespace egeria {

class GradientSync {
 public:
  // `transport` may be null for a single-process run.
  explicit GradientSync(Transport* transport) : transport_(transport) {}
  virtual ~GradientSync() = default;

  GradientSync(const GradientSync&) = delete;
  GradientSync& operator=(const GradientSync&) = delete;

  int Rank() const { return transport_ == nullptr ? 0 : transport_->Rank(); }
  int World() const { return transport_ == nullptr ? 1 : transport_->World(); }

  // ---- Control plane (no-ops at world 1) ----
  // Rank 0's value replaces *value on every rank (the per-iteration frontier
  // exchange, the resume step).
  TransportStatus Broadcast(int64_t* value);
  TransportStatus Barrier();

  // ---- Optimizer layout ----
  // Collective. The frontier moved from `old_frontier` to `new_frontier`
  // (both equal on the first call, which sets up the initial layout).
  // Optimizer state of stages [old_frontier, new_frontier) is dropped.
  // `first_iter` is the first iteration that steps under the new layout.
  virtual TransportStatus Repartition(ChainModel& model, int old_frontier,
                                      int new_frontier, int64_t first_iter) = 0;
  // Collective. Averages the active parameters' gradients across ranks and
  // applies the optimizer update to them; the update is timed as the
  // trainer/opt phase into *opt_seconds.
  virtual TransportStatus Step(const std::vector<Parameter*>& active, float lr,
                               double* opt_seconds) = 0;
  // Resident optimizer-state bytes on this rank.
  virtual int64_t StateBytes() const = 0;

  // ---- Checkpoint ----
  // Collective, at a checkpoint boundary. One ring all-gather brings every
  // rank's model buffers and its chunk of the sharded optimizer state to rank
  // 0, whose `model_state` (null on the other ranks) receives all of
  // model.state: the weights, replica k's buffers (ReplicaBufferName) and the
  // optimizer state as the replicated optimizer's "<param>#<field>" tensors.
  // The gather is checkpoint traffic and counts in no sync byte total.
  TransportStatus CaptureState(ChainModel& model, Checkpoint* model_state);
  // Restores the optimizer state CaptureState saved into `model_state`. `m`
  // is the step's manifest: its world may differ from this one (elastic
  // restart). False on a mismatch.
  virtual bool RestoreState(ChainModel& model, const Checkpoint& model_state,
                            const CkptManifest& m) = 0;

 protected:
  // A sharded optimizer's state is one flat vector of ShardedStateElems()
  // floats, split into contract chunks, one per rank; ShardedState() is this
  // rank's chunk. A replicated optimizer has none: rank 0 holds its state.
  virtual int64_t ShardedStateElems() const { return 0; }
  virtual std::vector<float> ShardedState() const { return {}; }
  // Rank 0, at capture: adds the optimizer state to `model_state`. `sharded`
  // is the whole ShardedStateElems() vector, gathered.
  virtual void ExportState(ChainModel& model, const std::vector<float>& sharded,
                           Checkpoint& model_state) = 0;

  Transport* transport_;
};

// The replicated optimizer: every rank holds the full state and steps every
// active parameter. At world 1 this is plain single-process training; the
// star reference (StarSync) adds its gradient average in front.
class LocalSync : public GradientSync {
 public:
  explicit LocalSync(std::unique_ptr<Optimizer> optimizer,
                     Transport* transport = nullptr);

  TransportStatus Repartition(ChainModel& model, int old_frontier, int new_frontier,
                              int64_t first_iter) override;
  TransportStatus Step(const std::vector<Parameter*>& active, float lr,
                       double* opt_seconds) override;
  int64_t StateBytes() const override { return optimizer_->StateBytes(); }
  bool RestoreState(ChainModel& model, const Checkpoint& model_state,
                    const CkptManifest& m) override;

 protected:
  void ExportState(ChainModel& model, const std::vector<float>& sharded,
                   Checkpoint& model_state) override;

 private:
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_GRADIENT_SYNC_H_
