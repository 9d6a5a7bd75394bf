// The Egeria controller (paper S4.1, Figs. 5-6).
//
// The controller owns the reference model's life cycle (generation by quantizing
// training snapshots, periodic refresh), runs reference forward passes, computes
// plasticity (SP loss between the worker's hooked activation and the reference's),
// and drives the freezing policy. It always runs on its own thread — the paper's
// CPU-side evaluation, off the worker's path:
//   SubmitSnapshot -> the thread quantizes the snapshot into the reference
//   SubmitEval     -> EvalRequest { batch, A_T at frontier, stage, lr, iter };
//                     the thread computes A_R with the reference forward
//   DrainDecisions -> FreezeDecisions back to the worker
// Submissions never block; work is processed in the order the trainer submits
// it (a snapshot before the evaluation of the same iteration). DrainDecisions,
// called at the top of every iteration, first waits until everything submitted
// so far has been processed, so iteration i's evaluation overlaps the rest of
// iteration i and decides at the top of i + 1 — the same point on every run,
// which keeps training deterministic and checkpoints bitwise.
//
// One thread (the trainer) calls every method. The controller thread touches
// the reference, the policy and the history only while work is in flight, and
// every method that reads them waits for the thread to go idle first.
#ifndef EGERIA_SRC_CORE_CONTROLLER_H_
#define EGERIA_SRC_CORE_CONTROLLER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/freezing_policy.h"
#include "src/data/batch.h"
#include "src/models/chain_model.h"

namespace egeria {

struct EvalRequest {
  Batch batch;       // the mini-batch (IQ)
  Tensor train_act;  // A_T hooked at the frontier stage (TOQ)
  int stage = 0;
  float lr = 0.0F;
  int64_t iter = 0;
};

// One plasticity sample, kept for introspection (Fig. 4 / Fig. 12 benches, tests).
struct PlasticityRecord {
  int64_t iter = 0;
  int stage = 0;
  double raw = 0.0;
};

class EgeriaController {
 public:
  EgeriaController(const EgeriaConfig& cfg, int num_stages, bool lr_annealing);
  ~EgeriaController();

  EgeriaController(const EgeriaController&) = delete;
  EgeriaController& operator=(const EgeriaController&) = delete;

  // ---- Worker-side API ----

  // Hands over a float snapshot of the training model; the controller quantizes it
  // into the reference (paper: snapshot moved off-GPU, then int8 PTQ on CPU).
  void SubmitSnapshot(std::unique_ptr<ChainModel> snapshot);

  // True when the controller wants a fresh snapshot (initial generation was done and
  // ref_update_evals evaluations have elapsed since the last refresh).
  bool WantsSnapshot() const { return wants_snapshot_.load(); }

  // Queues one plasticity evaluation; never blocks.
  void SubmitEval(EvalRequest req);

  // Blocks until every snapshot and evaluation submitted so far has been
  // processed.
  void WaitIdle() const;

  // Waits (WaitIdle), then returns the decisions produced since the last drain
  // (freeze + unfreeze).
  std::vector<FreezeDecision> DrainDecisions();

  // LR-based unfreeze check; cheap, called by the worker every iteration.
  std::optional<FreezeDecision> OnLr(float lr, int64_t iter);

  bool HasReference() const { return has_reference_.load(); }
  int64_t EvalsDone() const { return evals_done_.load(); }
  // These two wait (WaitIdle) before reading.
  std::vector<PlasticityRecord> PlasticityHistory() const;
  int Frontier() const;

  // Generation time of the last reference build (Table 2 / S6.5 overhead).
  double LastQuantizeSeconds() const { return last_quantize_seconds_.load(); }

  // ---- Checkpoint support ----
  // Serializes the full decision state: the freezing policy, refresh
  // bookkeeping, plasticity history, undrained freeze decisions, and — when a
  // reference exists — the float snapshot the current reference was quantized
  // from (quantization is deterministic, so the reference is rebuilt
  // bit-identically on restore).
  //
  // The state round-trips bitwise: the save first waits (WaitIdle) for the
  // snapshot and evaluation in flight — exactly the work the next iteration's
  // DrainDecisions would have waited for — then persists the decisions it
  // produced without draining them, so a save not followed by a crash changes
  // nothing. Call RestoreState before submitting any work.
  void SaveState(std::ostream& os);
  // `make_snapshot` must produce a model structurally identical to the
  // snapshots the trainer submits (a float CloneForInference of the training
  // model); saved weights are loaded into it before the reference rebuild.
  // Returns false (and logs) on a malformed or mismatched blob.
  bool RestoreState(std::istream& is,
                    const std::function<std::unique_ptr<ChainModel>()>& make_snapshot);

 private:
  void ControllerLoop();
  void BuildReference(std::unique_ptr<ChainModel> snapshot);
  std::optional<FreezeDecision> ProcessEval(const EvalRequest& req);

  EgeriaConfig cfg_;
  std::unique_ptr<InferenceFactory> factory_;

  // The hand-off between the trainer and the controller thread: submitted
  // work, the count of submitted items not yet processed, and the decisions
  // not yet drained. cv_ wakes the thread on new work and the trainer when
  // in_flight_ drops to zero.
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::deque<std::unique_ptr<ChainModel>> snapshots_;
  std::deque<EvalRequest> evals_;
  int in_flight_ = 0;
  std::vector<FreezeDecision> decisions_;
  bool stopping_ = false;

  // State below is the controller thread's while work is in flight, and the
  // trainer's once WaitIdle has returned.
  FreezingPolicy policy_;
  std::unique_ptr<ChainModel> reference_;
  // The float snapshot reference_ was quantized from, retained so checkpoints
  // can persist (and deterministically rebuild) the reference.
  std::unique_ptr<ChainModel> ref_snapshot_;
  std::atomic<bool> has_reference_{false};
  std::atomic<bool> wants_snapshot_{true};  // initial generation
  std::atomic<int64_t> evals_done_{0};
  std::atomic<double> last_quantize_seconds_{0.0};
  int64_t evals_since_refresh_ = 0;
  std::vector<PlasticityRecord> history_;

  std::thread thread_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_CONTROLLER_H_
