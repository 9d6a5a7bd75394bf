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
// The control-plane collectives (Broadcast, Barrier, ReduceFailingRank) run
// over the transport given at construction and are no-ops at world 1. Every
// rank must call each collective at the same logical step.
#ifndef EGERIA_SRC_CORE_GRADIENT_SYNC_H_
#define EGERIA_SRC_CORE_GRADIENT_SYNC_H_

#include <functional>
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
  // Typed all-ranks checkpoint status, reduced around the ring (W-1 steps):
  // *failing_rank receives the lowest rank whose local write failed, or -1.
  // Doubles as the rendezvous that guarantees every rank's files are written
  // before rank 0 hashes them into the manifest.
  TransportStatus ReduceFailingRank(bool local_ok, int* failing_rank);

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
  // Captures this rank's optimizer state at a checkpoint boundary. A
  // replicated optimizer adds its entries to `model_state` (non-null on rank
  // 0 only; persisted as model.state). A sharded one returns a writer that
  // persists this rank's RankStateFile into the step directory; it runs on
  // the background checkpoint writer, so it owns a copy of the state.
  virtual std::function<bool(const std::string& step_dir)> CaptureState(
      ChainModel& model, Checkpoint* model_state) = 0;
  // The per-rank file CaptureState writes for `rank` ("" = none).
  virtual std::string RankStateFile(int rank) const {
    (void)rank;
    return {};
  }
  // Restores what CaptureState saved. `m` is the step's manifest: its world
  // may differ from this one (elastic restart). False on a mismatch.
  virtual bool RestoreState(ChainModel& model, const Checkpoint& model_state,
                            const CkptManifest& m) = 0;

 protected:
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
  std::function<bool(const std::string& step_dir)> CaptureState(
      ChainModel& model, Checkpoint* model_state) override;
  bool RestoreState(ChainModel& model, const Checkpoint& model_state,
                    const CkptManifest& m) override;

 private:
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_GRADIENT_SYNC_H_
