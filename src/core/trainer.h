// The Egeria training loop (paper Fig. 3) — the only one in the repo.
//
// Life cycle: (1) bootstrapping stage — no freezing; the trainer monitors the
// training-loss change rate and enters the knowledge-guided stage once it falls
// below the configured threshold (the "critical period" guard). (2) knowledge-guided
// stage — the controller holds a quantized reference model; every n iterations the
// worker submits the mini-batch and the frontier activation for plasticity
// evaluation on the controller thread; at the top of the next iteration the
// trainer waits for it and applies its freeze/unfreeze decision. Frozen stages are excluded from backward
// computation, parameter updates and gradient synchronization, and — when the
// cache is enabled — from forward computation via cached boundary activations.
//
// Gradient synchronization is a plug-in (GradientSync, gradient_sync.h): the
// same loop runs single-process training (LocalSync) and one rank of a
// data-parallel world (TrainRank in src/distributed/dist_trainer.h). In a
// world, rank 0 holds the controller and runs the bootstrap gate on its own
// loss; at the top of every iteration it exchanges its frontier with every
// rank, and each epoch it alone validates while the others wait at a barrier.
//
// The same Trainer also hosts the comparison baselines through FreezeHook (static
// freezing, AutoFreeze, Skip-Conv gate, FreezeOut), so every system shares one loop.
#ifndef EGERIA_SRC_CORE_TRAINER_H_
#define EGERIA_SRC_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/core/activation_cache.h"
#include "src/core/config.h"
#include "src/core/controller.h"
#include "src/core/gradient_sync.h"
#include "src/core/task.h"
#include "src/data/dataloader.h"
#include "src/models/chain_model.h"
#include "src/optim/lr_scheduler.h"
#include "src/optim/optimizer.h"

namespace egeria {

class AsyncCheckpointWriter;

struct TrainConfig {
  int epochs = 20;
  int64_t batch_size = 16;
  TaskSpec task;

  enum class Optim { kSgd, kAdam };
  Optim optimizer = Optim::kSgd;
  float momentum = 0.9F;
  float weight_decay = 1e-4F;
  std::shared_ptr<LrScheduler> lr_schedule;  // required

  // Higher-better target (see TaskMetric::score). TTA is the cumulative training
  // time at the first epoch whose validation score reaches it.
  double target_score = std::numeric_limits<double>::infinity();
  int64_t val_batches = 8;
  int64_t train_samples_limit = -1;  // subsample the train set (quick benches)
  uint64_t seed = 42;
  bool verbose = false;

  bool enable_egeria = false;
  EgeriaConfig egeria;

  // Fault tolerance: when ckpt.enabled(), Run() snapshots the full training
  // state (model + every replica's BN stats, optimizer state, freeze frontier,
  // controller/policy state, loop cursors) every interval_iters iterations and
  // — if the directory already holds a complete checkpoint — resumes from the
  // latest one instead of starting over. The saved world size need not match
  // the resuming one (elastic restart: each rank slices its momentum shard out
  // of the saved momentum). Bitwise-resume
  // contract: a run checkpointed at iteration k and resumed at the same world
  // size produces final weights bit-identical to the uninterrupted run. Timing
  // fields of TrainResult (TTA, per-epoch seconds) cover only the resumed
  // segment.
  CheckpointOptions ckpt;

  // Stop cleanly after this many iterations (a final checkpoint is written if
  // checkpointing is enabled); <0 runs to completion. Crash-drill hook for
  // resume tests and benches. In a world every rank stops in lockstep.
  int64_t stop_after_iters = -1;
};

struct FreezeEvent {
  int64_t iter = 0;
  int epoch = 0;
  bool unfreeze = false;
  int frontier_after = 0;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  TaskMetric val;
  double train_seconds = 0.0;      // this epoch, excluding validation
  double cum_train_seconds = 0.0;  // since start, excluding validation
  int frontier = 0;
  float lr = 0.0F;
  // Frozen-prefix forward accounting for this epoch: seconds actually spent
  // computing the frozen prefix (miss/populate iterations only when the
  // feature store serves) and the number of iterations served from the store.
  double frozen_fp_seconds = 0.0;
  int64_t fp_skips = 0;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  std::vector<FreezeEvent> freeze_events;

  double total_train_seconds = 0.0;
  double tta_seconds = -1.0;  // <0: target never reached
  bool reached_target = false;
  TaskMetric final_metric;
  TaskMetric best_metric;

  // Breakdown (Fig. 9) and overhead accounting (S6.5).
  double fp_seconds = 0.0;
  double bp_seconds = 0.0;
  double opt_seconds = 0.0;
  double cache_seconds = 0.0;
  double data_seconds = 0.0;
  int64_t iterations = 0;
  int64_t fp_skip_count = 0;
  // Forward seconds spent inside the frozen prefix (only measurable while the
  // frontier is within MaxForwardSkipStage; zero before any freeze). With the
  // feature store on, this collapses to the populate pass — the fig09 smoke
  // gates on the off/on difference.
  double frozen_fp_seconds = 0.0;
  // Iterations where the store was enabled but declined to serve (epoch-varying
  // augmentation signature, a stochastic module in the prefix, or a table
  // over the store's byte budget).
  int64_t cache_declined_iters = 0;
  int64_t evals_submitted = 0;
  int64_t bootstrap_end_iter = -1;
  CacheStats cache;
  std::vector<PlasticityRecord> plasticity;
  int final_frontier = 0;
  double last_ref_quantize_seconds = 0.0;

  // Checkpoint/restore bookkeeping: iteration the run resumed from (-1 = fresh
  // start) and whether stop_after_iters ended the run before cfg.epochs.
  int64_t resumed_from_iter = -1;
  bool stopped_early = false;
  // Why the loop ended: ok() for a clean run; otherwise the first transport
  // error this rank observed (peer death, corrupt frame, coordinated abort).
  // On error the model reflects the last completed iteration — no partial
  // collective output is ever consumed — and no torn checkpoint is committed.
  TransportStatus status;
};

class Trainer;

// Baseline freezing policies plug in here; called once per iteration after the
// parameter update. In a world every rank runs its hook, which must then
// decide identically on every rank.
class FreezeHook {
 public:
  virtual ~FreezeHook() = default;
  virtual void OnIteration(Trainer& trainer, const Batch& batch, int64_t iter) = 0;
  virtual std::string Name() const = 0;
};

// Notified whenever the freeze frontier moves (FreezeUpTo / UnfreezeAll);
// anything outside the loop that partitions work by active parameters
// subscribes here instead of polling.
using FrontierObserver =
    std::function<void(int old_frontier, int new_frontier, int64_t iter)>;

// The optimizer TrainConfig selects (SGD with momentum, or Adam).
std::unique_ptr<Optimizer> MakeOptimizer(const TrainConfig& cfg);

class Trainer {
 public:
  // `sync` (not owned) connects the loop to the other ranks of a world; null
  // trains single-process with a LocalSync over MakeOptimizer(cfg).
  Trainer(ChainModel& model, const Dataset& train_data, const Dataset& val_data,
          TrainConfig cfg, GradientSync* sync = nullptr);
  ~Trainer();

  void SetFreezeHook(FreezeHook* hook) { hook_ = hook; }
  void SetFrontierObserver(FrontierObserver observer) {
    frontier_observer_ = std::move(observer);
  }
  // Called at the top of every iteration (numbered from 1), before anything
  // else in it — including a pending checkpoint commit.
  void SetIterationHook(std::function<void(int64_t iter)> hook) {
    iteration_hook_ = std::move(hook);
  }

  TrainResult Run();

  // ---- API for freezing policies / hooks ----
  void FreezeUpTo(int stage, int64_t iter);
  void UnfreezeAll(int64_t iter);
  int frontier() const { return frontier_; }
  ChainModel& model() { return model_; }
  const TrainConfig& config() const { return cfg_; }
  // Iterations each rank runs per epoch: its share of the batches.
  int64_t IterationsPerEpoch() const;
  int64_t TotalIterations() const;
  // Output of the frontmost active stage in the current iteration's forward pass.
  Tensor FrontierActivation() const;
  // Resident optimizer-state bytes (shrinks when freezing releases the frozen
  // prefix's state).
  int64_t OptimizerStateBytes() const { return sync_->StateBytes(); }

  // Runs validation (val_batches batches) in inference mode and restores training
  // mode. Also used standalone by benches.
  TaskMetric Validate();

 private:
  // One epoch's iterations from `first_step`, accumulating into `es`;
  // *iter is the last iteration run (iterations are numbered from 1).
  TransportStatus TrainEpoch(int epoch, int64_t first_step, EpochStats* es,
                             int64_t* iter);
  // Freezes stages [0, frontier) and thaws the rest; no events, no observer.
  void SetFrontier(int frontier);
  void ApplyDecision(const FreezeDecision& d);
  // Moves this rank to `frontier` (rank 0's, from the exchange).
  void MoveFrontier(int frontier, int64_t iter);
  // Hands a frontier move to the sync (collective; no-op when unmoved).
  TransportStatus SyncFrontier(int64_t first_iter);
  void MaybeSubmitEval(const Batch& batch, float lr, int64_t iter);
  void UpdateBootstrap(double loss, int64_t iter);
  // Collective checkpoint capture at the end of iteration `iter`: rank 0
  // gathers and clones everything the step needs and hands the file writes
  // to the background writer (or writes inline when async_save is off).
  TransportStatus CaptureCheckpoint(int64_t iter);
  // Collective commit of the captured step: once every rank has reached it,
  // rank 0 waits for its writes and commits the manifest if they all landed.
  TransportStatus CommitCheckpoint();
  // Restores the latest complete checkpoint (rank 0 picks it for the world);
  // *resumed_iter is -1 when there is nothing to resume from.
  TransportStatus TryResume(int64_t* resumed_iter);
  // FNV hash over the frozen prefix's parameter values (stages [0, frontier_)).
  // Recomputed whenever the frontier moves or weights are restored; together
  // with the augmentation signature it forms the feature store's generation
  // token, so stale boundary activations can never be served.
  uint64_t FrozenPrefixHash();
  // Generation token for ActivationCache::SetKey: mix of the frozen-prefix
  // parameter hash and the epoch-stable augmentation signature.
  uint64_t CacheGeneration() const;

  ChainModel& model_;
  const Dataset& train_data_;
  const Dataset& val_data_;
  TrainConfig cfg_;

  DataLoader loader_;
  DataLoader val_loader_;
  std::unique_ptr<GradientSync> owned_sync_;
  GradientSync* sync_;
  std::unique_ptr<EgeriaController> controller_;  // rank 0 only
  std::unique_ptr<ActivationCache> cache_;
  FreezeHook* hook_ = nullptr;
  FrontierObserver frontier_observer_;
  std::function<void(int64_t)> iteration_hook_;

  int frontier_ = 0;
  int sync_frontier_ = 0;  // the frontier the sync's layout was made for
  // Feature-store keying state: hash of the frozen prefix's parameters, the
  // current epoch's augmentation signature, and whether the dataset declared
  // this epoch's stream cacheable (signature stable across epochs).
  uint64_t frozen_prefix_hash_ = 0;
  uint64_t aug_signature_ = 0;
  bool store_cacheable_ = true;
  bool knowledge_stage_ = false;
  double bootstrap_prev_avg_ = -1.0;
  double bootstrap_window_sum_ = 0.0;
  int64_t bootstrap_window_count_ = 0;

  // Checkpoint capture -> commit state. Rank 0 writes every step; its writer
  // thread exists only when checkpointing is on with async_save.
  std::unique_ptr<AsyncCheckpointWriter> ckpt_writer_;
  bool ckpt_pending_ = false;    // a captured step awaits commit
  bool ckpt_capture_ok_ = true;  // rank 0's capture-phase failures (mkdir etc.)
  CkptManifest ckpt_manifest_;   // rank 0: metadata fixed at capture time

  TrainResult result_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_TRAINER_H_
