#include "src/distributed/dist_trainer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <tuple>
#include <unistd.h>

#include <fstream>

#include "src/ckpt/async_writer.h"
#include "src/ckpt/state_dict.h"
#include "src/ckpt/wire.h"
#include "src/core/controller.h"
#include "src/distributed/allreduce.h"
#include "src/distributed/flat_view.h"
#include "src/distributed/transport/inproc_transport.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/optim/optimizer.h"
#include "src/optim/sharded_optimizer.h"
#include "src/tensor/serialize.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

int64_t CountElems(const std::vector<Parameter*>& params) {
  int64_t n = 0;
  for (const Parameter* p : params) {
    n += p->value.NumEl();
  }
  return n;
}

uint64_t HashParams(const std::vector<Parameter*>& params) {
  uint64_t hash = kFnv64Offset;
  for (const Parameter* p : params) {
    hash = Fnv1a64(p->value.Data(),
                   static_cast<size_t>(p->value.NumEl()) * sizeof(float), hash);
  }
  return hash;
}

// The per-iteration control-plane message rank 0 broadcasts: the freeze
// frontier that takes effect from the NEXT iteration on. A fixed little
// serialized struct (not a shared atomic) so the decision crosses process
// boundaries; every rank applies it at the same iteration boundary, which is
// what keeps active sets — and therefore the reduction payload — identical
// across ranks.
struct FreezeMsg {
  int32_t next_frontier = 0;
};

TransportStatus ExchangeFrontier(Transport& transport, int rank, int32_t pending,
                                 int32_t* next_frontier) {
  FreezeMsg msg{pending};
  std::vector<uint8_t> wire;
  TransportStatus st = transport.Broadcast(
      rank == 0 ? &msg : nullptr, rank == 0 ? sizeof(msg) : 0, &wire);
  if (!st.ok()) {
    return st;
  }
  EGERIA_CHECK_MSG(wire.size() == sizeof(FreezeMsg), "bad freeze control message");
  std::memcpy(&msg, wire.data(), sizeof(msg));
  *next_frontier = msg.next_frontier;
  return st;
}

// ---- Distributed checkpoint files ----

constexpr uint32_t kShardMagic = 0x44534745;  // 'EGSD'
constexpr uint32_t kDistStateMagic = 0x44544745;  // 'EGTD'
constexpr uint32_t kDistStateVersion = 1;

std::string ShardFileName(int rank) {
  return "shard_r" + std::to_string(rank) + ".state";
}

// Per-replica buffer section (BatchNorm running statistics): never
// synchronized by training, so every rank persists its own.
std::string BuffersFileName(int rank) {
  return "buffers_r" + std::to_string(rank) + ".state";
}

bool WriteShardFile(const std::string& path, const ShardedSgd::ShardState& s) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return false;
  }
  wire::Write(os, kShardMagic);
  wire::Write(os, kDistStateVersion);
  wire::Write(os, s.frozen_elems);
  wire::Write(os, s.active_elems);
  wire::Write(os, s.global_begin);
  wire::Write(os, s.global_end);
  wire::WriteFloats(os, s.velocity);
  return static_cast<bool>(os);
}

// Typed all-ranks checkpoint status, reduced around the ring (W-1 exchange
// steps): each rank contributes (error code, rank) for its local snapshot
// write; the reduction keeps the failing entry of the LOWEST rank, so every
// rank deterministically agrees on one culprit to report. Doubles as the
// rendezvous that guarantees every rank's files are fully written before
// rank 0 hashes them into the manifest. A manifest must never commit over a
// torn peer file: the torn bytes would checksum "valid" and poison every
// future resume of that step — which is why the rank-0 commit is strictly
// conditional on the reduced status being clean, never on rank 0's local
// write alone.
struct CkptStatusWire {
  int32_t code = 0;   // TransportError as int32; 0 == ok
  int32_t rank = -1;  // the rank reporting `code` (lowest failing rank wins)
};

TransportStatus AllRanksCkptStatus(Transport& transport, bool local_ok,
                                   CkptStatusWire* worst) {
  CkptStatusWire acc;
  if (!local_ok) {
    acc.code = static_cast<int32_t>(TransportError::kIo);
    acc.rank = transport.Rank();
  }
  for (int step = 0; step + 1 < transport.World(); ++step) {
    CkptStatusWire incoming;
    TransportStatus st =
        transport.RingExchange(&acc, sizeof(acc), &incoming, sizeof(incoming));
    if (!st.ok()) {
      return st;
    }
    if (incoming.code != 0 &&
        (acc.code == 0 || incoming.rank < acc.rank)) {
      acc = incoming;
    }
  }
  *worst = acc;
  return TransportStatus::Ok();
}

bool ReadShardFile(const std::string& path, ShardedSgd::ShardState& s) {
  std::ifstream is(path, std::ios::binary);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!is || !wire::Read(is, magic) || magic != kShardMagic ||
      !wire::Read(is, version) || version != kDistStateVersion ||
      !wire::Read(is, s.frozen_elems) || !wire::Read(is, s.active_elems) ||
      !wire::Read(is, s.global_begin) || !wire::Read(is, s.global_end) ||
      !wire::ReadFloats(is, s.velocity) ||
      s.global_end - s.global_begin != static_cast<int64_t>(s.velocity.size())) {
    EGERIA_LOG(kError) << path << ": malformed optimizer shard";
    return false;
  }
  return true;
}

}  // namespace

// Propagates a transport error out of TrainRank: records the first error on
// the result (errors-as-values — a dead, hung or corrupting peer surfaces to
// the caller, never an abort), hands the model back, and returns. The typed
// error code also lands as an instant event on this rank's trace track, so a
// merged timeline shows WHERE in the phase structure the world came apart.
// Requires `result` and `model_owner` in scope.
#define EGERIA_RETURN_ON_TRANSPORT_ERROR(expr)                      \
  do {                                                              \
    TransportStatus st_ = (expr);                                   \
    if (!st_.ok()) {                                                \
      trace::AddInstantF("transport", "error", "{\"code\":\"%s\"}", \
                         st_.code_name());                          \
      obs::GetCounter("transport.errors").Add(1);                   \
      result.status = std::move(st_);                               \
      result.model = std::move(model_owner);                        \
      return result;                                                \
    }                                                               \
  } while (0)

RankTrainResult TrainRank(
    Transport& transport,
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg,
    GradientAllReducer* reference_reducer) {
  const int rank = transport.Rank();
  const int world = transport.World();
  EGERIA_CHECK(world >= 1 && cfg.world == world);
  EGERIA_CHECK(cfg.lr_schedule != nullptr);
  const bool sharded = cfg.reducer == DistTrainConfig::Reducer::kRingSharded;
  EGERIA_CHECK_MSG(sharded || reference_reducer != nullptr,
                   "sequential reference reducer requires in-process ranks");

  RankTrainResult result;
  result.rank = rank;

  // Observability: the in-process harness runs ranks as threads, so tracing
  // may already be initialized — InitFromEnv is idempotent and SetThreadName
  // is first-call-wins per thread. The multi-process worker additionally sets
  // the process rank/label before calling in (tools/egeria_worker.cc).
  trace::InitFromEnv();
  trace::SetThreadName(("rank" + std::to_string(rank)).c_str());
  obs::InstallDumpSignalHandler();
  obs::Histogram& data_hist = obs::GetHistogram("dist.data_s");
  obs::Histogram& fp_hist = obs::GetHistogram("dist.fp_s");
  obs::Histogram& bp_hist = obs::GetHistogram("dist.bp_s");
  obs::Histogram& opt_hist = obs::GetHistogram("dist.opt_s");
  obs::Histogram& comm_wait_hist = obs::GetHistogram("dist.comm_wait_s");
  obs::Counter& iter_counter = obs::GetCounter("dist.iterations");

  std::unique_ptr<ChainModel> model_owner = make_model();
  ChainModel& model = *model_owner;

  // Broadcast rank 0's initial weights so every replica starts bit-identical.
  {
    const std::vector<Parameter*> all = model.ParamsFrom(0);
    FlatParamView values(all, FlatParamView::Field::kValue);
    std::vector<uint8_t> buf;
    if (rank == 0) {
      buf.resize(static_cast<size_t>(values.NumEl()) * sizeof(float));
      values.CopyOut(0, values.NumEl(), reinterpret_cast<float*>(buf.data()));
    }
    std::vector<uint8_t> weights;
    EGERIA_RETURN_ON_TRANSPORT_ERROR(transport.Broadcast(
        buf.data(), static_cast<int64_t>(buf.size()), &weights));
    EGERIA_CHECK_MSG(static_cast<int64_t>(weights.size()) ==
                         values.NumEl() * static_cast<int64_t>(sizeof(float)),
                     "initial weight broadcast size mismatch (model divergence?)");
    if (rank != 0) {
      values.CopyIn(0, values.NumEl(), reinterpret_cast<const float*>(weights.data()));
    }
  }
  // The weight broadcast every rank just completed is the first collective of
  // the run — all ranks leave it within one propagation delay of each other,
  // so stamping the steady clock here gives tools/egeria_trace a common
  // instant to align per-process timelines on (no extra barrier traffic, so
  // fault-injection op counts are untouched).
  trace::MarkSync();

  // One loader per rank over the same permutation; rank r consumes batches
  // r, r+world, r+2*world, ... (disjoint shards of each epoch).
  DataLoader loader(train_data, cfg.batch_size, /*shuffle=*/true, cfg.seed);
  const int64_t steps_per_epoch = loader.NumBatches() / world;
  EGERIA_CHECK_MSG(steps_per_epoch >= 1, "dataset too small for this world size");

  RingAllReducer ring(transport);
  ShardedSgd shard_opt(cfg.momentum, cfg.weight_decay);
  std::unique_ptr<EgeriaController> controller;
  if (cfg.enable_egeria && rank == 0) {
    controller = std::make_unique<EgeriaController>(cfg.egeria, model.NumStages(),
                                                    cfg.lr_schedule->IsAnnealing());
  }

  model.SetTraining(true);
  Sgd opt(cfg.momentum, cfg.weight_decay);
  int frontier = 0;
  int32_t next_frontier = 0;
  int64_t iter = 0;
  bool knowledge_stage = !cfg.enable_egeria;
  const int64_t total_elems = model.TotalParamCount();
  const int64_t full_bytes_per_iter = total_elems * static_cast<int64_t>(sizeof(float));
  int64_t shard_begin = 0;
  int64_t shard_end = 0;
  double seg_comm_start = 0.0;  // ring.CommSeconds() at current segment start

  // Finalize the measured all-reduce seconds of the segment that just ended on
  // rank 0's timeline. A segment recorded at event iter E covers the collective
  // rounds of iterations max(E,1) .. next_start_iter-1 (iterations are numbered
  // from 1; the initial partition is recorded at E=0 but its first round runs
  // at iteration 1), so that is the round count to divide by.
  auto finalize_segment = [&](int64_t next_start_iter) {
    if (rank != 0 || result.reshard_events.empty()) {
      return;
    }
    DistReshardEvent& prev = result.reshard_events.back();
    const int64_t rounds = next_start_iter - std::max<int64_t>(prev.iter, 1);
    prev.allreduce_seconds_per_iter =
        rounds > 0
            ? (ring.CommSeconds() - seg_comm_start) / static_cast<double>(rounds)
            : 0.0;
    seg_comm_start = ring.CommSeconds();
  };

  // Collective shard (re)partition over the active suffix at `at_frontier`.
  // Every rank applies the same frontier at the same iteration (the control
  // broadcast), so all ranks reach this in lockstep.
  auto reshard = [&](int at_frontier, int64_t at_iter) -> TransportStatus {
    EGERIA_TRACE_SCOPE("dist", "reshard");
    const int64_t active = CountElems(model.ParamsFrom(at_frontier));
    std::pair<int64_t, int64_t> shard{0, 0};
    TransportStatus st =
        shard_opt.Reshard(transport, total_elems - active, active, &shard);
    if (!st.ok()) {
      return st;
    }
    std::tie(shard_begin, shard_end) = shard;
    if (rank == 0) {
      finalize_segment(at_iter);
      DistReshardEvent ev;
      ev.iter = at_iter;
      ev.frontier = at_frontier;
      ev.active_elems = active;
      ev.payload_bytes_per_iter = active * static_cast<int64_t>(sizeof(float));
      // Chunk 0 is the largest contract chunk, and rank 0 owns it.
      ev.opt_state_bytes_per_rank = shard_opt.StateBytes();
      result.reshard_events.push_back(ev);
    }
    return TransportStatus::Ok();
  };
  // ---- Checkpoint plumbing ----
  // The save is split into CAPTURE and COMMIT so the file writes can overlap
  // compute (ckpt/async_writer.h):
  //   capture — at the checkpoint boundary, clone everything the snapshot
  //     needs (shard copy, buffer/model state dicts, controller + loop state
  //     serialized to strings) and hand the serialization job to the
  //     background writer. The live model trains on immediately; the captured
  //     bytes are bitwise what a synchronous save would have persisted.
  //   commit — at the NEXT iteration boundary (immediately for stop/final
  //     saves and when async_save is off), every rank waits for its local
  //     write, the typed per-rank status is ring-reduced, and rank 0 hashes
  //     the files into the manifest and commits ONLY if every rank reported
  //     clean. The trailing barrier keeps "latest complete checkpoint"
  //     well-defined for every rank before anyone can crash ahead.
  // A crash or transport error anywhere between capture and commit leaves the
  // step directory manifest-less — invisible to resume, swept by retention —
  // so an aborting world can never publish torn state.
  AsyncCheckpointWriter ckpt_writer;
  bool ckpt_pending = false;       // a captured snapshot awaits commit
  bool ckpt_capture_ok = true;     // capture-phase local failures (mkdir etc.)
  int64_t ckpt_pending_iter = -1;
  CkptManifest ckpt_manifest;      // rank 0: metadata fixed at capture time
  bool ckpt_has_controller = false;

  auto capture_checkpoint = [&](int64_t at_iter) {
    // Capture leg of capture→write→commit: the clone the background writer
    // serializes. Its span sits on the rank track; the write span it hands
    // off shows up on the ckpt_writer track, overlapping the next iterations.
    obs::ScopedPhase capture_phase("ckpt", "capture",
                                   &obs::GetHistogram("ckpt.capture_s"));
    const std::string step_dir = CheckpointStepDir(cfg.ckpt.dir, at_iter);
    bool ok = EnsureDir(step_dir);
    // Clone the snapshot: the background thread must never read live state.
    ShardedSgd::ShardState shard_state;
    if (sharded) {
      shard_state = shard_opt.ExportShard();
    }
    Checkpoint buffers = ExportModelBuffers(model);
    Checkpoint state;
    std::string dist_state_bytes;
    std::string controller_bytes;
    bool has_controller = false;
    if (rank == 0) {
      state = ExportModelState(model);
      if (!sharded) {
        // Sequential reference path: the replicated optimizer state is
        // identical on every rank; persist rank 0's alongside the weights.
        std::vector<Parameter*> params;
        std::vector<std::string> names;
        auto named = NamedParams(model);
        for (auto& [name, p] : named) {
          names.push_back(std::move(name));
          params.push_back(p);
        }
        opt.ExportState(params, names, state);
      }
      {
        std::ostringstream os(std::ios::binary);
        wire::Write(os, kDistStateMagic);
        wire::Write(os, kDistStateVersion);
        wire::Write(os, at_iter);
        wire::Write(os, static_cast<uint8_t>(knowledge_stage ? 1 : 0));
        dist_state_bytes = os.str();
      }
      if (controller != nullptr) {
        std::ostringstream os(std::ios::binary);
        controller->SaveState(os);
        ok = ok && static_cast<bool>(os);
        controller_bytes = os.str();
        has_controller = true;
      }
      ckpt_manifest = CkptManifest{};
      ckpt_manifest.kind = "dist";
      ckpt_manifest.iter = at_iter;
      ckpt_manifest.world = world;
      ckpt_manifest.frontier = frontier;
      ckpt_manifest.next_frontier = next_frontier;
      ckpt_manifest.dir = step_dir;
      const int64_t active = CountElems(model.ParamsFrom(frontier));
      ckpt_manifest.frozen_elems = total_elems - active;
      ckpt_manifest.active_elems = active;
    }
    auto write_job = [rank, sharded, step_dir, shard_state = std::move(shard_state),
                      buffers = std::move(buffers), state = std::move(state),
                      dist_state_bytes = std::move(dist_state_bytes),
                      controller_bytes = std::move(controller_bytes),
                      has_controller]() -> bool {
      bool wok = true;
      if (sharded) {
        wok = WriteShardFile(step_dir + "/" + ShardFileName(rank), shard_state);
      }
      wok = wok && SaveCheckpoint(step_dir + "/" + BuffersFileName(rank), buffers);
      if (rank == 0) {
        wok = wok && SaveCheckpoint(step_dir + "/model.state", state);
        {
          std::ofstream os(step_dir + "/dist.state",
                           std::ios::binary | std::ios::trunc);
          os.write(dist_state_bytes.data(),
                   static_cast<std::streamsize>(dist_state_bytes.size()));
          wok = wok && static_cast<bool>(os);
        }
        if (has_controller) {
          std::ofstream os(step_dir + "/controller.state",
                           std::ios::binary | std::ios::trunc);
          os.write(controller_bytes.data(),
                   static_cast<std::streamsize>(controller_bytes.size()));
          wok = wok && static_cast<bool>(os);
        }
      }
      return wok;
    };
    ckpt_capture_ok = ok;
    if (cfg.ckpt.async_save) {
      ckpt_writer.Submit(std::move(write_job));
    } else {
      ckpt_capture_ok = ok && write_job();
    }
    ckpt_pending = true;
    ckpt_pending_iter = at_iter;
    ckpt_has_controller = has_controller;
  };

  auto commit_checkpoint = [&]() -> TransportStatus {
    obs::ScopedPhase commit_phase("ckpt", "commit",
                                  &obs::GetHistogram("ckpt.commit_s"));
    ckpt_pending = false;
    bool local_ok = ckpt_capture_ok;
    if (cfg.ckpt.async_save) {
      local_ok = ckpt_writer.Wait() && local_ok;
    }
    CkptStatusWire worst;
    {
      TransportStatus st = AllRanksCkptStatus(transport, local_ok, &worst);
      if (!st.ok()) {
        return st;
      }
    }
    if (rank == 0) {
      if (worst.code != 0) {
        EGERIA_LOG(kError)
            << "distributed checkpoint at iter " << ckpt_pending_iter << ": rank "
            << worst.rank << " reported status "
            << TransportErrorName(static_cast<TransportError>(worst.code))
            << " writing its files; step abandoned (training continues from "
               "the previous checkpoint)";
      } else {
        CkptManifest m = ckpt_manifest;
        bool ok = AddManifestFile(m, "model.state") && AddManifestFile(m, "dist.state");
        if (ok && ckpt_has_controller) {
          ok = AddManifestFile(m, "controller.state");
        }
        for (int r = 0; r < world && ok; ++r) {
          ok = AddManifestFile(m, BuffersFileName(r));
          if (ok && sharded) {
            ok = AddManifestFile(m, ShardFileName(r));
          }
        }
        if (!ok || !CommitManifest(m)) {
          EGERIA_LOG(kError) << "distributed checkpoint at iter " << ckpt_pending_iter
                             << " failed; training continues uncheckpointed";
        } else {
          ApplyRetention(cfg.ckpt.dir, cfg.ckpt.keep_last);
        }
      }
    }
    return transport.Barrier();
  };

  // ---- Resume ----
  // Rank 0 picks the latest complete checkpoint and broadcasts its iteration,
  // so every rank restores the same step even if retention or a concurrent
  // writer could have raced a per-rank scan.
  int64_t resume_iter = -1;
  if (!cfg.ckpt.dir.empty() && cfg.ckpt.resume) {
    int64_t found = -1;
    if (rank == 0) {
      if (const auto m = FindLatestCheckpoint(cfg.ckpt.dir)) {
        if (m->kind == "dist") {
          found = m->iter;
        } else {
          EGERIA_LOG(kError) << m->dir << " is a '" << m->kind
                             << "' checkpoint; distributed resume ignores it";
        }
      }
    }
    std::vector<uint8_t> msg;
    EGERIA_RETURN_ON_TRANSPORT_ERROR(transport.Broadcast(
        rank == 0 ? &found : nullptr, rank == 0 ? sizeof(found) : 0, &msg));
    EGERIA_CHECK(msg.size() == sizeof(found));
    std::memcpy(&found, msg.data(), sizeof(found));
    resume_iter = found;
  }
  if (resume_iter >= 0) {
    const std::string step_dir = CheckpointStepDir(cfg.ckpt.dir, resume_iter);
    const auto m = ReadManifest(step_dir);
    EGERIA_CHECK_MSG(m.has_value(), "resume checkpoint vanished: " + step_dir);
    EGERIA_CHECK_MSG(m->frozen_elems + m->active_elems == total_elems,
                     "checkpoint was taken for a different model");
    iter = m->iter;
    frontier = m->frontier;
    next_frontier = m->next_frontier;
    for (int i = 0; i < model.NumStages(); ++i) {
      model.SetStageFrozen(i, i < frontier);
    }
    Checkpoint state;
    EGERIA_CHECK_MSG(LoadCheckpoint(step_dir + "/model.state", state) &&
                         LoadModelState(state, model),
                     "model state restore failed: " + step_dir);
    // Buffers (BatchNorm running stats) are per-replica: restore this rank's
    // own section, overriding the rank-0 copy model.state carries. Elastic
    // restart maps new ranks onto saved replicas round-robin — buffers have
    // no world-invariant owner, and both sides of the elastic hash pin use
    // this same convention.
    {
      const int saved_rank = rank % m->world;
      Checkpoint bufs;
      EGERIA_CHECK_MSG(
          LoadCheckpoint(step_dir + "/" + BuffersFileName(saved_rank), bufs) &&
              LoadModelBuffers(bufs, model),
          "replica buffer restore failed: " + step_dir);
    }
    {
      std::ifstream is(step_dir + "/dist.state", std::ios::binary);
      uint32_t magic = 0;
      uint32_t version = 0;
      int64_t saved_iter = 0;
      uint8_t ks = 0;
      EGERIA_CHECK_MSG(wire::Read(is, magic) && magic == kDistStateMagic &&
                           wire::Read(is, version) && version == kDistStateVersion &&
                           wire::Read(is, saved_iter) && saved_iter == m->iter &&
                           wire::Read(is, ks),
                       "malformed dist.state: " + step_dir);
      knowledge_stage = ks != 0;
    }
    if (sharded) {
      // Re-fold the saved momentum shards through the reduction-contract
      // partition at THIS world size — the saved world may differ (elastic
      // restart); every element's value is preserved, only ownership moves.
      std::vector<ShardedSgd::ShardState> saved(static_cast<size_t>(m->world));
      for (int r = 0; r < m->world; ++r) {
        EGERIA_CHECK_MSG(
            ReadShardFile(step_dir + "/" + ShardFileName(r),
                          saved[static_cast<size_t>(r)]),
            "optimizer shard restore failed: " + step_dir);
      }
      std::tie(shard_begin, shard_end) = shard_opt.RestoreShard(
          rank, world, m->frozen_elems, m->active_elems, saved);
    } else {
      std::vector<Parameter*> params;
      std::vector<std::string> names;
      auto named = NamedParams(model);
      for (auto& [name, p] : named) {
        names.push_back(std::move(name));
        params.push_back(p);
      }
      EGERIA_CHECK_MSG(opt.ImportState(params, names, state),
                       "replicated optimizer restore failed: " + step_dir);
    }
    if (rank == 0) {
      if (controller != nullptr) {
        EGERIA_CHECK_MSG(m->HasFile("controller.state"),
                         "Egeria enabled but checkpoint has no controller state");
        std::ifstream cs(step_dir + "/controller.state", std::ios::binary);
        InferenceFactory float_factory;
        EGERIA_CHECK_MSG(
            controller->RestoreState(cs,
                                     [&] { return model.CloneForInference(float_factory); }),
            "controller state restore failed: " + step_dir);
      }
      // Open the resumed segment on the reshard timeline.
      DistReshardEvent ev;
      ev.iter = iter;
      ev.frontier = frontier;
      ev.active_elems = m->active_elems;
      ev.payload_bytes_per_iter = m->active_elems * static_cast<int64_t>(sizeof(float));
      ev.opt_state_bytes_per_rank = shard_opt.StateBytes();
      result.reshard_events.push_back(ev);
      seg_comm_start = ring.CommSeconds();
    }
    result.resumed_from_iter = resume_iter;
    EGERIA_LOG(kInfo) << "rank " << rank << " resumed from " << step_dir << " (iter "
                      << iter << ", frontier " << frontier << ", saved world "
                      << m->world << ")";
  } else if (sharded) {
    EGERIA_RETURN_ON_TRANSPORT_ERROR(reshard(frontier, 0));
  }

  const int start_epoch = static_cast<int>(iter / steps_per_epoch);
  const int64_t start_step = iter % steps_per_epoch;
  bool stop = false;
  // Whole-loop wall time (epoch loop only, excludes setup/resume/validation):
  // recorded on the result at the natural end of the run and emitted as one
  // top-level trace span. Left 0.0 on transport-error exits.
  const int64_t train_start_ns = trace::NowNs();

  for (int epoch = start_epoch; epoch < cfg.epochs && !stop; ++epoch) {
    // Every rank derives the same permutation (deterministic in (seed, epoch)).
    DataLoader local(train_data, cfg.batch_size, /*shuffle=*/true, cfg.seed);
    local.StartEpoch(epoch);
    for (int64_t s = epoch == start_epoch ? start_step : 0; s < steps_per_epoch; ++s) {
      ++iter;
      if (cfg.iteration_hook) {
        cfg.iteration_hook(rank, iter);
      }
      const float lr = cfg.lr_schedule->LrAt(iter);

      // Commit the checkpoint captured at the previous boundary (async save):
      // its background write overlapped the last iteration's compute. A crash
      // before this point left the step manifest-less — invisible to resume.
      if (ckpt_pending) {
        EGERIA_RETURN_ON_TRANSPORT_ERROR(commit_checkpoint());
      }

      // Apply the frontier broadcast at the end of the previous iteration.
      if (next_frontier != frontier) {
        for (int i = 0; i < model.NumStages(); ++i) {
          model.SetStageFrozen(i, i < next_frontier);
        }
        frontier = next_frontier;
        if (sharded) {
          // Frontier moved: drop the newly frozen prefix from the shard map
          // (and its optimizer state), repartition the survivors.
          EGERIA_RETURN_ON_TRANSPORT_ERROR(reshard(frontier, iter));
        }
      }

      obs::ScopedPhase data_phase("trainer", "data", &data_hist,
                                  &result.data_seconds);
      Batch batch = local.GetBatch(s * world + rank);
      data_phase.Stop();

      obs::ScopedPhase fp_phase("trainer", "fp", &fp_hist, &result.fp_seconds);
      model.SetBatch(batch);
      Tensor logits = model.ForwardFrom(0, batch.input);
      LossResult loss = TaskLoss(cfg.task, logits, batch);
      fp_phase.Stop();

      // Controller duties on rank 0 only (logically centralized, Fig. 5). Runs
      // BEFORE this iteration's control broadcast so the decision reaches every
      // rank in time to be applied at the same iteration boundary. It also runs
      // before backward: everything the controller reads (forward activations,
      // pre-update weights, lr, iter) is untouched by backward, so its inputs
      // are bitwise the post-backward placement's.
      int32_t pending = static_cast<int32_t>(frontier);
      if (rank == 0 && controller != nullptr) {
        if (!cfg.egeria.async_controller) {
          controller->RunPendingSync();
        }
        if (!knowledge_stage && iter >= cfg.egeria.eval_interval_n) {
          knowledge_stage = true;  // Simplified bootstrap: fixed warmup.
        }
        if (knowledge_stage && controller->WantsSnapshot()) {
          InferenceFactory float_factory;
          controller->SubmitSnapshot(model.CloneForInference(float_factory));
        }
        if (knowledge_stage && iter % cfg.egeria.eval_interval_n == 0 &&
            frontier < model.NumStages() - 1 - cfg.egeria.protected_tail + 1) {
          EvalRequest req;
          req.batch = batch;
          req.train_act = model.StageOutput(frontier);
          req.stage = frontier;
          req.lr = lr;
          req.iter = iter;
          controller->SubmitEval(std::move(req));
        }
        for (const FreezeDecision& d : controller->DrainDecisions()) {
          pending = d.kind == FreezeDecision::Kind::kFreezeUpTo
                        ? static_cast<int32_t>(d.stage + 1)
                        : 0;
        }
        if (auto d = controller->OnLr(lr, iter)) {
          if (d->kind == FreezeDecision::Kind::kUnfreezeAll) {
            pending = 0;
          }
        }
      }

      // Control plane: the frontier taking effect at iter+1, serialized and
      // broadcast so it crosses process boundaries.
      EGERIA_RETURN_ON_TRANSPORT_ERROR(
          ExchangeFrontier(transport, rank, pending, &next_frontier));

      // Backward + synchronization of active parameters only — frozen stages
      // are "excluded from parameter synchronization" (paper S4.2.2, Fig. 10).
      const std::vector<Parameter*> active = model.ParamsFrom(frontier);
      for (Parameter* p : active) {
        p->grad.Zero_();
      }
      {
        obs::ScopedPhase bp_phase("trainer", "bp", &bp_hist, &result.bp_seconds);
        model.BackwardTo(frontier, loss.grad);
      }
      if (sharded) {
        // ZeRO-1 round: ring reduce-scatter the gradients, the owner applies
        // the optimizer update on its shard, ring all-gather the updated
        // weights. Both collectives record into dist.comm_wait_s, which the
        // heartbeat stats frames ship to rank 0 for online straggler
        // detection: a rank that never waits here is the one everyone else
        // is waiting FOR.
        FlatParamView grads(active, FlatParamView::Field::kGrad);
        FlatParamView values(active, FlatParamView::Field::kValue);
        std::pair<int64_t, int64_t> owned{0, 0};
        {
          obs::ScopedPhase wait_phase("trainer", "comm_wait", &comm_wait_hist);
          EGERIA_RETURN_ON_TRANSPORT_ERROR(ring.ReduceScatterAverage(grads, &owned));
        }
        EGERIA_CHECK(owned.first == shard_begin && owned.second == shard_end);
        {
          obs::ScopedPhase opt_phase("trainer", "opt", &opt_hist,
                                     &result.opt_seconds);
          shard_opt.Step(values, grads, shard_begin, shard_end, lr);
        }
        {
          obs::ScopedPhase wait_phase("trainer", "comm_wait", &comm_wait_hist);
          EGERIA_RETURN_ON_TRANSPORT_ERROR(ring.AllGather(values));
        }
      } else {
        EGERIA_TRACE_SCOPE("ring", "star_reduce");
        reference_reducer->AllReduce(rank, active);
      }
      int64_t payload = 0;
      for (Parameter* p : active) {
        payload += p->grad.NumEl() * static_cast<int64_t>(sizeof(float));
      }
      result.bytes_synced += payload;
      result.bytes_full_model += full_bytes_per_iter;
      if (!sharded) {
        obs::ScopedPhase opt_phase("trainer", "opt", &opt_hist,
                                   &result.opt_seconds);
        opt.Step(active, lr);
      }
      iter_counter.Add(1);
      obs::MaybeDumpOnSignal("dist_trainer");

      // --- Checkpoint + crash-drill stop (collective; every rank shares the
      // config, so the cadence is in lockstep) ---
      const bool at_interval =
          cfg.ckpt.enabled() && iter % cfg.ckpt.interval_iters == 0;
      const bool stopping = cfg.stop_after_iters >= 0 && iter >= cfg.stop_after_iters;
      if (at_interval || (stopping && cfg.ckpt.enabled())) {
        capture_checkpoint(iter);
      }
      // Async saves normally commit at the NEXT boundary; a stop (or async off)
      // flushes inline — nobody is around next iteration to commit for us.
      if (ckpt_pending && (stopping || !cfg.ckpt.async_save)) {
        EGERIA_RETURN_ON_TRANSPORT_ERROR(commit_checkpoint());
      }
      if (stopping) {
        result.stopped_early = true;
        stop = true;
        break;
      }
    }
  }
  // Natural run end with a capture still in flight: flush it.
  if (ckpt_pending) {
    EGERIA_RETURN_ON_TRANSPORT_ERROR(commit_checkpoint());
  }

  {
    const int64_t train_dur_ns = trace::NowNs() - train_start_ns;
    result.train_seconds = static_cast<double>(train_dur_ns) * 1e-9;
    obs::GetHistogram("dist.train_s").Observe(result.train_seconds);
    if (trace::Enabled()) {
      trace::AddComplete("trainer", "train", train_start_ns, train_dur_ns);
    }
  }

  finalize_segment(iter + 1);  // The last segment ran through iteration `iter`.
  result.final_frontier = frontier;
  result.iterations = iter;
  result.wire_bytes = ring.TotalWireBytes();
  result.allreduce_seconds = ring.CommSeconds();
  result.params_hash = HashParams(model.ParamsFrom(0));

  // Validate on rank 0's replica.
  if (rank == 0) {
    EGERIA_TRACE_SCOPE("trainer", "validate");
    model.SetTraining(false);
    DataLoader val_loader(val_data, cfg.batch_size, /*shuffle=*/false, cfg.seed + 1);
    std::vector<TaskMetric> parts;
    const int64_t nb = std::min<int64_t>(cfg.val_batches, val_loader.NumBatches());
    for (int64_t b = 0; b < nb; ++b) {
      Batch batch = val_loader.GetBatch(b);
      model.SetBatch(batch);
      Tensor logits = model.ForwardFrom(0, batch.input);
      parts.push_back(EvaluateTask(cfg.task, logits, batch));
    }
    const TaskMetric metric = AggregateMetric(cfg.task, parts);
    result.final_score = metric.score;
    result.final_display = metric.display;
  }

  result.model = std::move(model_owner);
  return result;
}

#undef EGERIA_RETURN_ON_TRANSPORT_ERROR

DistTrainResult TrainDataParallel(
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg) {
  EGERIA_CHECK(cfg.world >= 1);
  EGERIA_CHECK(cfg.lr_schedule != nullptr);
  const bool use_tcp = cfg.transport == DistTrainConfig::TransportKind::kTcp;

  GradientAllReducer reference(cfg.world);
  GradientAllReducer* reference_ptr =
      cfg.reducer == DistTrainConfig::Reducer::kSequentialReference ? &reference
                                                                    : nullptr;

  InprocTransportGroup inproc(cfg.world);
  std::string rendezvous_dir;
  if (use_tcp) {
    char tmpl[] = "/tmp/egeria-rdzv-XXXXXX";
    EGERIA_CHECK_MSG(mkdtemp(tmpl) != nullptr, "mkdtemp failed for tcp rendezvous");
    rendezvous_dir = tmpl;
  }

  std::vector<RankTrainResult> results(static_cast<size_t>(cfg.world));
  auto worker_fn = [&](int rank) {
    auto run = [&](Transport& transport) {
      results[static_cast<size_t>(rank)] =
          TrainRank(transport, make_model, train_data, val_data, cfg, reference_ptr);
    };
    if (use_tcp) {
      TcpTransportOptions opts;
      opts.rank = rank;
      opts.world = cfg.world;
      opts.rendezvous_file = rendezvous_dir + "/rendezvous";
      // Ranks are threads here, so wiring completes in milliseconds.
      std::unique_ptr<Transport> transport = MakeTcpTransport(opts);
      run(*transport);
    } else {
      run(inproc.Get(rank));
    }
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < cfg.world; ++r) {
    threads.emplace_back(worker_fn, r);
  }
  for (auto& t : threads) {
    t.join();
  }
  if (!rendezvous_dir.empty()) {
    unlink((rendezvous_dir + "/rendezvous").c_str());
    rmdir(rendezvous_dir.c_str());
  }

  DistTrainResult result;
  const RankTrainResult& r0 = results[0];
  result.final_score = r0.final_score;
  result.final_display = r0.final_display;
  result.bytes_synced = r0.bytes_synced;
  result.bytes_full_model = r0.bytes_full_model;
  result.allreduce_seconds = r0.allreduce_seconds;
  result.final_frontier = r0.final_frontier;
  result.iterations = r0.iterations;
  result.params_hash = r0.params_hash;
  result.resumed_from_iter = r0.resumed_from_iter;
  result.stopped_early = r0.stopped_early;
  result.reshard_events = r0.reshard_events;
  result.status = r0.status;
  // Synchronized SGD on contract-reduced gradients keeps replicas bitwise
  // identical; the content hash makes that check transport-agnostic.
  result.replicas_consistent = true;
  for (const RankTrainResult& r : results) {
    result.wire_bytes += r.wire_bytes;
    if (r.params_hash != r0.params_hash) {
      result.replicas_consistent = false;
    }
    if (!r.status.ok()) {
      // Any failed rank invalidates the consistency claim; surface the first.
      result.replicas_consistent = false;
      if (result.status.ok()) {
        result.status = r.status;
      }
    }
  }
  return result;
}

}  // namespace egeria
