#include "src/core/gradient_sync.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/ckpt/state_dict.h"
#include "src/distributed/transport/ring_schedule.h"
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

TransportStatus GradientSync::CaptureState(ChainModel& model, Checkpoint* model_state) {
  // Every rank's piece of the gather: its buffers in state-dict order, then
  // its chunk of the sharded optimizer state. Each rank knows every piece's
  // size, so the frames need no header.
  const std::vector<StateEntry> buffers = CollectModelBuffers(model);
  int64_t buffer_elems = 0;
  for (const auto& [name, tensor] : buffers) {
    buffer_elems += tensor->NumEl();
  }
  const int64_t sharded_elems = ShardedStateElems();
  std::vector<std::vector<float>> pieces(static_cast<size_t>(World()));
  std::vector<float>& own = pieces[static_cast<size_t>(Rank())];
  for (const auto& [name, tensor] : buffers) {
    own.insert(own.end(), tensor->Data(), tensor->Data() + tensor->NumEl());
  }
  const std::vector<float> shard = ShardedState();
  own.insert(own.end(), shard.begin(), shard.end());
  if (World() > 1) {
    // Checkpoint traffic, so no byte counter.
    const TransportStatus st = RingCirculate(
        *transport_, Rank(),
        [&](int r) {
          return Span{0, buffer_elems + ChunkSpan(sharded_elems, World(), r).size()};
        },
        [&](float* buf, int r, const Span& s) {
          std::copy_n(pieces[static_cast<size_t>(r)].data(), s.size(), buf);
        },
        [&](const float* buf, int r, const Span& s) {
          pieces[static_cast<size_t>(r)].assign(buf, buf + s.size());
        },
        nullptr);
    if (!st.ok()) {
      return st;
    }
  }
  if (model_state == nullptr) {
    return TransportStatus::Ok();
  }
  // Rank 0's buffers are the state dict's own entries.
  *model_state = ExportModelState(model);
  std::vector<float> sharded;
  sharded.reserve(static_cast<size_t>(sharded_elems));
  for (int r = 0; r < World(); ++r) {
    const std::vector<float>& piece = pieces[static_cast<size_t>(r)];
    const float* p = piece.data();
    for (const auto& [name, tensor] : buffers) {
      if (r > 0) {
        Tensor copy = Tensor::Uninitialized(tensor->Shape());
        std::copy_n(p, copy.NumEl(), copy.Data());
        model_state->emplace(ReplicaBufferName(name, r), std::move(copy));
      }
      p += tensor->NumEl();
    }
    sharded.insert(sharded.end(), piece.begin() + buffer_elems, piece.end());
  }
  ExportState(model, sharded, *model_state);
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

void LocalSync::ExportState(ChainModel& model, const std::vector<float>& sharded,
                            Checkpoint& model_state) {
  (void)sharded;
  // Replicated: identical on every rank, so rank 0's copy is the state.
  std::vector<Parameter*> params;
  std::vector<std::string> names;
  NamedParamLists(model, &params, &names);
  optimizer_->ExportState(params, names, model_state);
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
