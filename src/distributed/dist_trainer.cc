#include "src/distributed/dist_trainer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <tuple>
#include <sched.h>
#include <unistd.h>

#include "src/ckpt/state_dict.h"
#include "src/distributed/flat_view.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

int64_t ParamBytes(const std::vector<Parameter*>& params) {
  int64_t n = 0;
  for (const Parameter* p : params) {
    n += p->value.NumEl();
  }
  return n * static_cast<int64_t>(sizeof(float));
}

uint64_t HashParams(const std::vector<Parameter*>& params) {
  uint64_t hash = kFnv64Offset;
  for (const Parameter* p : params) {
    hash = Fnv1a64(p->value.Data(),
                   static_cast<size_t>(p->value.NumEl()) * sizeof(float), hash);
  }
  return hash;
}

// Calls fn(name, param, offset) for every parameter of the active suffix,
// the last `active_elems` elements of the flat parameter space, with its
// model.state name and its first element in active-space coordinates.
template <class Fn>
void ForEachActiveParam(ChainModel& model, int64_t active_elems, Fn&& fn) {
  int64_t offset = active_elems - model.TotalParamCount();
  for (const auto& [name, p] : NamedParams(model)) {
    if (offset >= 0) {
      fn(name, *p, offset);
    }
    offset += p->value.NumEl();
  }
}

// Moves the calling thread to the rank-th CPU it may use (modulo their count),
// then lets it use all of them again. Ranks wake each other at every
// collective, and the kernel may place a woken thread on its waker's CPU even
// while other CPUs idle: in a two-rank TCP world whose ranks are threads of
// one process, on a 4-vCPU VM, both rank threads shared one CPU for most of
// the run in 3 of 6 runs started after a pause, taking turns, and those runs
// took 1.8x as long. Started on CPUs of their own, the ranks kept them.
void StartOnOwnCpu(int rank) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return;
  }
  int skip = rank % CPU_COUNT(&allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) {
      continue;
    }
    cpu_set_t own;
    CPU_ZERO(&own);
    CPU_SET(cpu, &own);
    if (sched_setaffinity(0, sizeof(own), &own) == 0 &&
        sched_setaffinity(0, sizeof(allowed), &allowed) != 0) {
      EGERIA_LOG(kWarn) << "rank " << rank << ": could not restore the CPU affinity; "
                        << "the rank stays on CPU " << cpu;
    }
    return;
  }
}

}  // namespace

// ---------------------------------------------------------------- RingSync

RingSync::RingSync(Transport& transport, float momentum, float weight_decay)
    : GradientSync(&transport), ring_(transport), shard_opt_(momentum, weight_decay) {}

TransportStatus RingSync::Repartition(ChainModel& model, int old_frontier,
                                      int new_frontier, int64_t first_iter) {
  (void)old_frontier;
  EGERIA_TRACE_SCOPE("dist", "reshard");
  // Every rank moves to the same frontier at the same iteration (the frontier
  // exchange), so all ranks reach this collective in lockstep. The newly
  // frozen prefix leaves the shard map with its momentum; the survivors'
  // momentum migrates to its new owners.
  const int64_t active =
      ParamBytes(model.ParamsFrom(new_frontier)) / static_cast<int64_t>(sizeof(float));
  std::pair<int64_t, int64_t> shard{0, 0};
  TransportStatus st =
      shard_opt_.Reshard(*transport_, model.TotalParamCount() - active, active, &shard);
  if (!st.ok()) {
    return st;
  }
  std::tie(shard_begin_, shard_end_) = shard;
  RecordPartition(first_iter, new_frontier, active);
  return st;
}

TransportStatus RingSync::Step(const std::vector<Parameter*>& active, float lr,
                               double* opt_seconds) {
  // ZeRO-1 round: ring reduce-scatter the gradients, the owner applies the
  // update on its shard, ring all-gather the updated weights. Both
  // collectives record into trainer.comm_wait_s, the input of
  // `egeria_trace --diagnose`'s straggler verdict: a rank that never waits
  // here is the one everyone else is waiting FOR.
  static obs::Histogram& comm_wait_hist = obs::GetHistogram("trainer.comm_wait_s");
  static obs::Histogram& opt_hist = obs::GetHistogram("trainer.opt_s");
  FlatParamView grads(active, FlatParamView::Field::kGrad);
  FlatParamView values(active, FlatParamView::Field::kValue);
  std::pair<int64_t, int64_t> owned{0, 0};
  {
    obs::ScopedPhase wait_phase("trainer", "comm_wait", &comm_wait_hist, &comm_seconds_);
    TransportStatus st = ring_.ReduceScatterAverage(grads, &owned);
    if (!st.ok()) {
      return st;
    }
  }
  EGERIA_CHECK(owned.first == shard_begin_ && owned.second == shard_end_);
  {
    obs::ScopedPhase opt_phase("trainer", "opt", &opt_hist, opt_seconds);
    shard_opt_.Step(values, grads, shard_begin_, shard_end_, lr);
  }
  bytes_synced_ += ParamBytes(active);
  obs::ScopedPhase wait_phase("trainer", "comm_wait", &comm_wait_hist, &comm_seconds_);
  return ring_.AllGather(values);
}

void RingSync::ExportState(ChainModel& model, const std::vector<float>& sharded,
                           Checkpoint& model_state) {
  ForEachActiveParam(model, active_elems_,
                     [&](const std::string& name, const Parameter& p, int64_t offset) {
                       Tensor v = Tensor::Uninitialized(p.value.Shape());
                       std::copy_n(sharded.data() + offset, v.NumEl(), v.Data());
                       model_state.emplace(name + "#v", std::move(v));
                     });
}

bool RingSync::RestoreState(ChainModel& model, const Checkpoint& model_state,
                            const CkptManifest& m) {
  const int64_t active =
      ParamBytes(model.ParamsFrom(m.frontier)) / static_cast<int64_t>(sizeof(float));
  // A parameter without saved momentum restarts at zero, as under Sgd.
  std::vector<float> velocity(static_cast<size_t>(active), 0.0F);
  bool ok = true;
  ForEachActiveParam(model, active, [&](const std::string& name, const Parameter& p,
                                        int64_t offset) {
    const auto it = model_state.find(name + "#v");
    if (it == model_state.end()) {
      return;
    }
    if (it->second.NumEl() != p.value.NumEl()) {
      EGERIA_LOG(kError) << m.dir << ": momentum " << name << " has " << it->second.NumEl()
                         << " elements, parameter has " << p.value.NumEl();
      ok = false;
      return;
    }
    std::copy_n(it->second.Data(), p.value.NumEl(), velocity.data() + offset);
  });
  if (!ok) {
    return false;
  }
  std::tie(shard_begin_, shard_end_) =
      shard_opt_.Restore(Rank(), World(), model.TotalParamCount() - active, velocity);
  RecordPartition(m.iter, m.frontier, active);
  return true;
}

void RingSync::RecordPartition(int64_t iter, int frontier, int64_t active_elems) {
  active_elems_ = active_elems;
  if (Rank() != 0) {
    return;
  }
  ReshardEvents(iter - 1);
  DistReshardEvent ev;
  ev.iter = iter;
  ev.frontier = frontier;
  ev.active_elems = active_elems;
  ev.payload_bytes_per_iter = active_elems * static_cast<int64_t>(sizeof(float));
  // Chunk 0 is the largest contract chunk, and rank 0 owns it.
  ev.opt_state_bytes_per_rank = shard_opt_.StateBytes();
  events_.push_back(ev);
}

// A segment opened at event iter E covers the rounds of iterations
// max(E, 1) .. last_iter (iterations are numbered from 1; the initial
// partition opens at E = 0 but its first round runs at iteration 1).
std::vector<DistReshardEvent> RingSync::ReshardEvents(int64_t last_iter) {
  if (!events_.empty()) {
    DistReshardEvent& seg = events_.back();
    const int64_t rounds = last_iter + 1 - std::max<int64_t>(seg.iter, 1);
    seg.allreduce_seconds_per_iter =
        rounds > 0 ? (CommSeconds() - segment_comm_start_) / static_cast<double>(rounds)
                   : 0.0;
  }
  segment_comm_start_ = CommSeconds();
  return events_;
}

// ---------------------------------------------------------------- StarSync

StarSync::StarSync(Transport& transport, std::unique_ptr<Optimizer> optimizer)
    : LocalSync(std::move(optimizer), &transport) {}

TransportStatus StarSync::Step(const std::vector<Parameter*>& active, float lr,
                               double* opt_seconds) {
  {
    EGERIA_TRACE_SCOPE("ring", "star_reduce");
    FlatParamView grads(active, FlatParamView::Field::kGrad);
    TransportStatus st = StarAllReduce(*transport_, grads);
    if (!st.ok()) {
      return st;
    }
  }
  bytes_synced_ += ParamBytes(active);
  return LocalSync::Step(active, lr, opt_seconds);
}

// ---------------------------------------------------------------- TrainRank

RankTrainResult TrainRank(
    Transport& transport,
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg) {
  const int rank = transport.Rank();
  EGERIA_CHECK(cfg.world == transport.World());
  const bool sharded = cfg.reducer == DistTrainConfig::Reducer::kRingSharded;
  EGERIA_CHECK_MSG(!sharded || cfg.optimizer == TrainConfig::Optim::kSgd,
                   "the ring sync shards momentum SGD only");

  RankTrainResult result;
  result.rank = rank;
  // The in-process harness runs ranks as threads, so tracing may already be
  // initialized — InitFromEnv is idempotent and SetThreadName is
  // first-call-wins per thread. The multi-process worker additionally sets
  // the process rank/label before calling in (tools/egeria_worker.cc).
  trace::InitFromEnv();
  trace::SetThreadName(("rank" + std::to_string(rank)).c_str());
  result.model = make_model();
  ChainModel& model = *result.model;

  // Broadcast rank 0's initial weights so every replica starts bit-identical.
  {
    FlatParamView values(model.ParamsFrom(0), FlatParamView::Field::kValue);
    std::vector<uint8_t> buf;
    if (rank == 0) {
      buf.resize(static_cast<size_t>(values.NumEl()) * sizeof(float));
      values.CopyOut(0, values.NumEl(), reinterpret_cast<float*>(buf.data()));
    }
    std::vector<uint8_t> weights;
    result.status = transport.Broadcast(buf.data(), static_cast<int64_t>(buf.size()),
                                        &weights);
    if (!result.status.ok()) {
      return result;
    }
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
  if (cfg.world > 1) {
    StartOnOwnCpu(rank);
  }

  auto run = [&](GradientSync& sync) {
    Trainer trainer(model, train_data, val_data, cfg, &sync);
    if (cfg.iteration_hook) {
      trainer.SetIterationHook([&](int64_t iter) { cfg.iteration_hook(rank, iter); });
    }
    return trainer.Run();
  };
  TrainResult tr;
  if (sharded) {
    RingSync sync(transport, cfg.momentum, cfg.weight_decay);
    tr = run(sync);
    result.bytes_synced = sync.BytesSynced();
    result.wire_bytes = sync.WireBytes();
    result.allreduce_seconds = sync.CommSeconds();
    result.iterations = std::max<int64_t>(tr.resumed_from_iter, 0) + tr.iterations;
    result.reshard_events = sync.ReshardEvents(result.iterations);
  } else {
    StarSync sync(transport, MakeOptimizer(cfg));
    tr = run(sync);
    result.bytes_synced = sync.BytesSynced();
    result.iterations = std::max<int64_t>(tr.resumed_from_iter, 0) + tr.iterations;
  }
  result.status = std::move(tr.status);
  if (!result.status.ok()) {
    return result;
  }
  result.bytes_full_model = tr.iterations * ParamBytes(model.ParamsFrom(0));
  result.params_hash = HashParams(model.ParamsFrom(0));
  result.final_frontier = tr.final_frontier;
  result.final_score = tr.final_metric.score;
  result.final_display = tr.final_metric.display;
  result.data_seconds = tr.data_seconds;
  result.fp_seconds = tr.fp_seconds;
  result.bp_seconds = tr.bp_seconds;
  result.opt_seconds = tr.opt_seconds;
  result.train_seconds = tr.total_train_seconds;
  result.resumed_from_iter = tr.resumed_from_iter;
  result.stopped_early = tr.stopped_early;
  return result;
}

DistTrainResult TrainDataParallel(
    const std::function<std::unique_ptr<ChainModel>()>& make_model,
    const Dataset& train_data, const Dataset& val_data, const DistTrainConfig& cfg) {
  EGERIA_CHECK(cfg.world >= 1);
  EGERIA_CHECK(cfg.lr_schedule != nullptr);

  char rendezvous_dir[] = "/tmp/egeria-rdzv-XXXXXX";
  EGERIA_CHECK_MSG(mkdtemp(rendezvous_dir) != nullptr, "mkdtemp failed for tcp rendezvous");
  const std::string rendezvous = std::string(rendezvous_dir) + "/rendezvous";

  std::vector<RankTrainResult> results(static_cast<size_t>(cfg.world));
  auto worker_fn = [&](int rank) {
    TcpTransportOptions opts;
    opts.rank = rank;
    opts.world = cfg.world;
    opts.rendezvous_file = rendezvous;
    // Ranks are threads here, so wiring completes in milliseconds.
    std::unique_ptr<Transport> transport = MakeTcpTransport(opts);
    results[static_cast<size_t>(rank)] =
        TrainRank(*transport, make_model, train_data, val_data, cfg);
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < cfg.world; ++r) {
    threads.emplace_back(worker_fn, r);
  }
  for (auto& t : threads) {
    t.join();
  }
  unlink(rendezvous.c_str());
  rmdir(rendezvous_dir);

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
