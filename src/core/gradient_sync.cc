#include "src/core/gradient_sync.h"

#include <cstring>
#include <utility>

#include "src/ckpt/state_dict.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

// Model.state's optimizer sections are keyed by the state-dict parameter
// names (the "#field" suffixes cannot collide with state-dict entries).
void NamedParamLists(ChainModel& model, std::vector<Parameter*>* params,
                     std::vector<std::string>* names) {
  for (auto& [name, p] : NamedParams(model)) {
    names->push_back(std::move(name));
    params->push_back(p);
  }
}

}  // namespace

// Serialized, so the value crosses process boundaries.
TransportStatus GradientSync::Broadcast(int64_t* value) {
  if (World() == 1) {
    return TransportStatus::Ok();
  }
  const bool root = Rank() == 0;
  std::vector<uint8_t> wire;
  TransportStatus st =
      transport_->Broadcast(root ? value : nullptr, root ? sizeof(*value) : 0, &wire);
  if (!st.ok()) {
    return st;
  }
  EGERIA_CHECK_MSG(wire.size() == sizeof(*value), "bad control-plane message size");
  std::memcpy(value, wire.data(), sizeof(*value));
  return st;
}

TransportStatus GradientSync::Barrier() {
  return World() == 1 ? TransportStatus::Ok() : transport_->Barrier();
}

// Each rank contributes (error code, rank) for its local write; the reduction
// keeps the failing entry of the LOWEST rank, so every rank agrees on one
// culprit. A manifest must never commit over a torn peer file: the torn bytes
// would checksum "valid" and poison every later resume of that step.
TransportStatus GradientSync::ReduceFailingRank(bool local_ok, int* failing_rank) {
  struct CkptStatusWire {
    int32_t code = 0;   // TransportError as int32; 0 == ok
    int32_t rank = -1;  // the rank reporting `code`
  } acc;
  if (!local_ok) {
    acc.code = static_cast<int32_t>(TransportError::kIo);
    acc.rank = Rank();
  }
  for (int step = 0; step + 1 < World(); ++step) {
    CkptStatusWire incoming;
    TransportStatus st =
        transport_->RingExchange(&acc, sizeof(acc), &incoming, sizeof(incoming));
    if (!st.ok()) {
      return st;
    }
    if (incoming.code != 0 && (acc.code == 0 || incoming.rank < acc.rank)) {
      acc = incoming;
    }
  }
  *failing_rank = acc.code == 0 ? -1 : acc.rank;
  return TransportStatus::Ok();
}

LocalSync::LocalSync(std::unique_ptr<Optimizer> optimizer, Transport* transport)
    : GradientSync(transport), optimizer_(std::move(optimizer)) {}

TransportStatus LocalSync::Repartition(ChainModel& model, int old_frontier,
                                       int new_frontier, int64_t first_iter) {
  (void)first_iter;
  // Free the newly frozen stages' momentum/moments (the optimizer-state half
  // of freezing's memory saving); they restart from zero if they unfreeze.
  std::vector<Parameter*> newly_frozen;
  for (int s = old_frontier; s < new_frontier; ++s) {
    for (Parameter* p : model.StageParams(s)) {
      newly_frozen.push_back(p);
    }
  }
  optimizer_->ReleaseState(newly_frozen);
  return TransportStatus::Ok();
}

TransportStatus LocalSync::Step(const std::vector<Parameter*>& active, float lr,
                                double* opt_seconds) {
  static obs::Histogram& opt_hist = obs::GetHistogram("trainer.opt_s");
  obs::ScopedPhase opt_phase("trainer", "opt", &opt_hist, opt_seconds);
  optimizer_->Step(active, lr);
  return TransportStatus::Ok();
}

std::function<bool(const std::string&)> LocalSync::CaptureState(
    ChainModel& model, Checkpoint* model_state) {
  if (model_state != nullptr) {
    // Replicated: identical on every rank, so rank 0's copy is the state.
    std::vector<Parameter*> params;
    std::vector<std::string> names;
    NamedParamLists(model, &params, &names);
    optimizer_->ExportState(params, names, *model_state);
  }
  return nullptr;
}

bool LocalSync::RestoreState(ChainModel& model, const Checkpoint& model_state,
                             const CkptManifest& m) {
  (void)m;
  std::vector<Parameter*> params;
  std::vector<std::string> names;
  NamedParamLists(model, &params, &names);
  return optimizer_->ImportState(params, names, model_state);
}

}  // namespace egeria
