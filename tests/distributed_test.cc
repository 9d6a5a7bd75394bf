// Distributed substrate: network model, communication scheduler properties
// (ByteScheduler <= FIFO; Egeria reduces both compute and traffic), real all-reduce
// correctness (ring vs sequential reference, bitwise), shard repartitioning under
// freezing, the data-parallel harness (a world of one is the plain Trainer; a
// rank's CPU affinity survives TrainRank), and checkpoint resume (same-world,
// elastic, and async vs inline saves).
#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "src/baselines/freeze_baselines.h"
#include "src/ckpt/checkpoint.h"
#include "src/core/module_partitioner.h"
#include "src/core/trainer.h"
#include "src/data/synthetic_image.h"
#include "src/distributed/allreduce.h"
#include "src/distributed/comm_scheduler.h"
#include "src/distributed/dist_trainer.h"
#include "src/distributed/dist_workload.h"
#include "src/distributed/flat_view.h"
#include "src/distributed/network_model.h"
#include "src/distributed/reduction_contract.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/models/resnet.h"
#include "src/obs/metrics.h"
#include "src/optim/lr_scheduler.h"
#include "src/util/rng.h"
#include "tests/tcp_world.h"

namespace egeria {
namespace {

ClusterConfig TwoByTwo() {
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.gpus_per_node = 2;
  return cfg;
}

TEST(NetworkModel, ZeroForSingleGpuOrNoBytes) {
  ClusterConfig single;
  single.num_nodes = 1;
  single.gpus_per_node = 1;
  EXPECT_DOUBLE_EQ(NetworkModel(single).AllReduceSeconds(1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(NetworkModel(TwoByTwo()).AllReduceSeconds(0), 0.0);
}

TEST(NetworkModel, MonotoneInBytesAndNodes) {
  NetworkModel net(TwoByTwo());
  EXPECT_LT(net.AllReduceSeconds(1 << 20), net.AllReduceSeconds(1 << 22));
  ClusterConfig wider = TwoByTwo();
  wider.num_nodes = 5;
  EXPECT_LT(net.AllReduceSeconds(1 << 22),
            NetworkModel(wider).AllReduceSeconds(1 << 22));
}

std::vector<StageCost> SyntheticStages() {
  // Front-light, deep-heavy (CNN-like): 6 stages.
  std::vector<StageCost> stages;
  for (int i = 0; i < 6; ++i) {
    StageCost s;
    s.fp_seconds = 0.002 + 0.001 * i;
    s.bp_seconds = 2.0 * s.fp_seconds;
    s.grad_bytes = int64_t{200000} * (i + 1);
    stages.push_back(s);
  }
  return stages;
}

TEST(CommScheduler, ByteSchedulerNeverSlowerThanFifo) {
  NetworkModel net(TwoByTwo());
  const auto stages = SyntheticStages();
  const auto fifo = SimulateIteration(stages, net, CommPolicy::kFifo);
  const auto bs = SimulateIteration(stages, net, CommPolicy::kByteScheduler);
  EXPECT_LE(bs.iteration_seconds, fifo.iteration_seconds + 1e-9);
  EXPECT_GT(fifo.iteration_seconds, 0.0);
}

TEST(CommScheduler, FreezingReducesIterationTimeAndTraffic) {
  NetworkModel net(TwoByTwo());
  const auto stages = SyntheticStages();
  for (CommPolicy policy : {CommPolicy::kFifo, CommPolicy::kByteScheduler}) {
    const auto full = SimulateIteration(stages, net, policy, 0);
    const auto frozen2 = SimulateIteration(stages, net, policy, 2);
    const auto frozen2_cached =
        SimulateIteration(stages, net, policy, 2, /*prefix_fp_cached=*/true);
    EXPECT_LT(frozen2.iteration_seconds, full.iteration_seconds);
    EXPECT_LT(frozen2.comm_seconds, full.comm_seconds);
    EXPECT_LE(frozen2_cached.iteration_seconds, frozen2.iteration_seconds + 1e-12);
  }
}

TEST(CommScheduler, NoCommMeansComputeBound) {
  ClusterConfig single;
  single.num_nodes = 1;
  single.gpus_per_node = 1;
  NetworkModel net(single);
  const auto stages = SyntheticStages();
  const auto t = SimulateIteration(stages, net, CommPolicy::kFifo);
  double compute = 0.0;
  for (const auto& s : stages) {
    compute += s.fp_seconds + s.bp_seconds;
  }
  EXPECT_NEAR(t.iteration_seconds, compute, 1e-9);
  EXPECT_DOUBLE_EQ(t.exposed_comm_seconds, 0.0);
}

TEST(CommScheduler, ExposedCommShrinksWithPriorityScheduling) {
  // Communication-heavy regime so scheduling matters.
  ClusterConfig cfg = TwoByTwo();
  cfg.inter_node_gbps = 2.0;
  NetworkModel net(cfg);
  const auto stages = SyntheticStages();
  const auto fifo = SimulateIteration(stages, net, CommPolicy::kFifo);
  const auto bs = SimulateIteration(stages, net, CommPolicy::kByteScheduler);
  EXPECT_GT(fifo.exposed_comm_seconds, 0.0);
  EXPECT_LT(bs.exposed_comm_seconds, fifo.exposed_comm_seconds + 1e-9);
}

TEST(AllReduce, AveragesGradientsAcrossRanks) {
  const int world = 3;
  GradientAllReducer reducer(world);
  std::vector<std::unique_ptr<Parameter>> params;
  for (int r = 0; r < world; ++r) {
    auto p = std::make_unique<Parameter>("w", Tensor::Zeros({4}));
    p->grad.Fill_(static_cast<float>(r + 1));  // grads 1, 2, 3 -> mean 2.
    params.push_back(std::move(p));
  }
  std::vector<std::thread> threads;
  std::vector<std::vector<Parameter*>> lists(world);
  for (int r = 0; r < world; ++r) {
    lists[static_cast<size_t>(r)] = {params[static_cast<size_t>(r)].get()};
    threads.emplace_back(
        [&, r] { reducer.AllReduce(r, lists[static_cast<size_t>(r)]); });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int r = 0; r < world; ++r) {
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(params[static_cast<size_t>(r)]->grad.At(i), 2.0F);
    }
  }
  EXPECT_EQ(reducer.TotalBytesReduced(), 4 * 4);
}

// ---- Ring reducer vs sequential reference (the reduction contract) ----
//
// The ring schedule runs over the byte-oriented TCP transport and must match
// the sequential reference reducer BITWISE at every world size.

// The control-plane primitives: Broadcast delivers rank 0's bytes everywhere
// (empty payloads included) and Barrier releases no rank before every rank
// arrived.
TEST(Transport, BroadcastAndBarrierOverTcp) {
  for (int world : {2, 3}) {
    std::atomic<int> arrived{0};
    RunTcpWorld(world, [&](int rank, Transport& transport) {
      const uint32_t root_word = 0xABCD1234U;
      std::vector<uint8_t> msg;
      ASSERT_TRUE(transport
                      .Broadcast(rank == 0 ? &root_word : nullptr,
                                 rank == 0 ? sizeof(root_word) : 0, &msg)
                      .ok());
      ASSERT_EQ(msg.size(), sizeof(root_word));
      uint32_t got = 0;
      std::memcpy(&got, msg.data(), sizeof(got));
      EXPECT_EQ(got, root_word) << "rank " << rank;
      std::vector<uint8_t> empty;
      ASSERT_TRUE(transport.Broadcast(nullptr, 0, &empty).ok());
      EXPECT_TRUE(empty.empty());
      // Everyone checks in before the barrier; nobody may observe a count
      // below `world` after it.
      arrived.fetch_add(1);
      ASSERT_TRUE(transport.Barrier().ok());
      EXPECT_EQ(arrived.load(), world) << "rank " << rank;
    });
  }
}

// One "replica": a list of parameters with randomly filled gradients.
using ParamSet = std::vector<std::unique_ptr<Parameter>>;

ParamSet MakeParams(const std::vector<int64_t>& sizes, Rng& rng) {
  ParamSet set;
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto p = std::make_unique<Parameter>("p" + std::to_string(i),
                                         Tensor::Zeros({sizes[i]}));
    for (int64_t j = 0; j < sizes[i]; ++j) {
      p->grad.At(j) = rng.NextUniform(-2.0F, 2.0F);
    }
    set.push_back(std::move(p));
  }
  return set;
}

void CopyGrads(const ParamSet& src, ParamSet& dst) {
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    std::memcpy(dst[i]->grad.Data(), src[i]->grad.Data(),
                static_cast<size_t>(src[i]->grad.NumEl()) * sizeof(float));
  }
}

std::vector<Parameter*> Suffix(const ParamSet& set, size_t first) {
  std::vector<Parameter*> out;
  for (size_t i = first; i < set.size(); ++i) {
    out.push_back(set[i].get());
  }
  return out;
}

// Per-round bitwise comparison state for one ring run.
struct RingRunStats {
  int64_t payload_rank0 = 0;
  int64_t wire_sum = 0;
};

// Runs the reference star reduce on `ref` and ring RS+AG over TCP on
// `ring_set` (both restricted to params [first, end)), then asserts every
// rank's every gradient is bitwise-identical across the two reducers.
RingRunStats ReduceBothAndExpectBitwiseEqual(int world,
                                             std::vector<ParamSet>& ref,
                                             std::vector<ParamSet>& ring_set,
                                             size_t first,
                                             GradientAllReducer& reference) {
  std::vector<std::vector<Parameter*>> ref_lists(static_cast<size_t>(world));
  std::vector<std::vector<Parameter*>> ring_lists(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    ref_lists[static_cast<size_t>(r)] = Suffix(ref[static_cast<size_t>(r)], first);
    ring_lists[static_cast<size_t>(r)] = Suffix(ring_set[static_cast<size_t>(r)], first);
  }
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        reference.AllReduce(r, ref_lists[static_cast<size_t>(r)]);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  RingRunStats stats;
  std::mutex stats_mutex;
  RunTcpWorld(world, [&](int rank, Transport& transport) {
    RingAllReducer ring(transport);
    FlatParamView view(ring_lists[static_cast<size_t>(rank)],
                       FlatParamView::Field::kGrad);
    ASSERT_TRUE(ring.ReduceScatterAverage(view, nullptr).ok());
    ASSERT_TRUE(ring.AllGather(view).ok());
    std::lock_guard<std::mutex> lock(stats_mutex);
    stats.wire_sum += ring.TotalWireBytes();
    if (rank == 0) {
      stats.payload_rank0 = ring.TotalBytesReduced();
    }
  });
  for (int r = 0; r < world; ++r) {
    for (size_t p = first; p < ref[0].size(); ++p) {
      const Tensor& a = ref[static_cast<size_t>(r)][p]->grad;
      const Tensor& b = ring_set[static_cast<size_t>(r)][p]->grad;
      EXPECT_EQ(0, std::memcmp(a.Data(), b.Data(),
                               static_cast<size_t>(a.NumEl()) * sizeof(float)))
          << "world=" << world << " rank=" << r << " param=" << p;
    }
  }
  return stats;
}

TEST(RingAllReduce, BitwiseMatchesSequentialReference) {
  // Total 29 elements: not divisible by any tested world size, so every run
  // exercises uneven contract chunks.
  const std::vector<int64_t> sizes = {5, 7, 3, 11, 2, 1};
  for (int world : {2, 3, 4}) {
    Rng rng(1234 + static_cast<uint64_t>(world));
    std::vector<ParamSet> ref;
    std::vector<ParamSet> ring_set;
    for (int r = 0; r < world; ++r) {
      ref.push_back(MakeParams(sizes, rng));
      ring_set.push_back(MakeParams(sizes, rng));
      CopyGrads(ref.back(), ring_set.back());
    }
    GradientAllReducer reference(world);
    const RingRunStats stats =
        ReduceBothAndExpectBitwiseEqual(world, ref, ring_set, 0, reference);
    EXPECT_EQ(reference.TotalBytesReduced(), stats.payload_rank0);
    // Ring wire traffic is exactly 2(W-1)/W of the payload per link; summed
    // over the W links that is 2(W-1) x payload for reduce-scatter+all-gather.
    const int64_t total = 29;
    EXPECT_EQ(stats.wire_sum,
              2 * (world - 1) * total * static_cast<int64_t>(sizeof(float)));
  }
}

TEST(RingAllReduce, RepartitionMidRunStaysBitwise) {
  // A rank drops newly frozen stages mid-run: round 0 reduces the full list,
  // later rounds reduce shrinking suffixes. The ring must re-chunk the smaller
  // flat space and stay bitwise-identical to the reference at every round.
  const std::vector<int64_t> sizes = {6, 1, 9, 4, 7, 2};  // total 29
  for (int world : {2, 3, 4}) {
    Rng rng(77 + static_cast<uint64_t>(world));
    std::vector<ParamSet> ref;
    std::vector<ParamSet> ring_set;
    for (int r = 0; r < world; ++r) {
      ref.push_back(MakeParams(sizes, rng));
      ring_set.push_back(MakeParams(sizes, rng));
      CopyGrads(ref.back(), ring_set.back());
    }
    GradientAllReducer reference(world);
    for (size_t frozen_params : {size_t{0}, size_t{2}, size_t{3}, size_t{5}}) {
      // Fresh local gradients each round, identical across reducers.
      for (int r = 0; r < world; ++r) {
        for (auto& p : ref[static_cast<size_t>(r)]) {
          for (int64_t j = 0; j < p->grad.NumEl(); ++j) {
            p->grad.At(j) = rng.NextUniform(-2.0F, 2.0F);
          }
        }
        CopyGrads(ref[static_cast<size_t>(r)], ring_set[static_cast<size_t>(r)]);
      }
      ReduceBothAndExpectBitwiseEqual(world, ref, ring_set, frozen_params, reference);
    }
  }
}

TEST(RingAllReduce, TinyPayloadLeavesEmptyChunks) {
  // Fewer elements than ranks: the trailing contract chunks are empty and the
  // ring must still terminate (zero-length frames keep the schedule in
  // lockstep on the wire) and match the reference bitwise.
  const std::vector<int64_t> sizes = {2, 1};
  const int world = 4;
  Rng rng(9);
  std::vector<ParamSet> ref;
  std::vector<ParamSet> ring_set;
  for (int r = 0; r < world; ++r) {
    ref.push_back(MakeParams(sizes, rng));
    ring_set.push_back(MakeParams(sizes, rng));
    CopyGrads(ref.back(), ring_set.back());
  }
  GradientAllReducer reference(world);
  ReduceBothAndExpectBitwiseEqual(world, ref, ring_set, 0, reference);
}

TEST(RingAllReduce, WorldOneIsIdentity) {
  Rng rng(5);
  ParamSet set = MakeParams({4, 3}, rng);
  ParamSet orig = MakeParams({4, 3}, rng);
  CopyGrads(set, orig);
  std::unique_ptr<Transport> transport = MakeTcpTransport(TcpTransportOptions{});
  RingAllReducer ring(*transport);
  auto list = Suffix(set, 0);
  FlatParamView view(list, FlatParamView::Field::kGrad);
  std::pair<int64_t, int64_t> owned{-1, -1};
  ASSERT_TRUE(ring.ReduceScatterAverage(view, &owned).ok());
  ASSERT_TRUE(ring.AllGather(view).ok());
  EXPECT_EQ(owned.first, 0);
  EXPECT_EQ(owned.second, 7);
  for (size_t p = 0; p < set.size(); ++p) {
    EXPECT_EQ(0, std::memcmp(set[p]->grad.Data(), orig[p]->grad.Data(),
                             static_cast<size_t>(set[p]->grad.NumEl()) * sizeof(float)));
  }
  EXPECT_EQ(ring.TotalWireBytes(), 0);
}

// The DistTrainerTest runs train the `tiny` workload (dist_workload.h).
TEST(DistTrainerTest, ReplicasStayConsistentAndLearn) {
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 2;
  w.cfg.epochs = 6;
  DistTrainResult r = TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
  EXPECT_TRUE(r.replicas_consistent);
  EXPECT_GT(r.final_display, 0.6);
  EXPECT_EQ(r.bytes_synced, r.bytes_full_model);  // Nothing frozen.
}

// The ZeRO-1 ring path and the replicated reference path implement the same
// reduction contract and the same compiled SGD arithmetic, so whole training
// runs must agree bitwise — with and without freezing mid-run.
TEST(DistTrainerTest, ShardedPathBitwiseMatchesReferencePath) {
  for (int world : {2, 3}) {
    DistWorkload w = MakeDistWorkload("tiny");
    DistTrainConfig& cfg = w.cfg;
    cfg.world = world;
    cfg.epochs = 4;
    cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
    DistTrainResult ref = TrainDataParallel(w.make_model, *w.train, *w.val, cfg);
    cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
    DistTrainResult ring = TrainDataParallel(w.make_model, *w.train, *w.val, cfg);

    EXPECT_TRUE(ref.replicas_consistent);
    EXPECT_TRUE(ring.replicas_consistent);
    EXPECT_EQ(ref.params_hash, ring.params_hash) << "world=" << world;
    EXPECT_EQ(ref.bytes_synced, ring.bytes_synced);
    EXPECT_EQ(ref.wire_bytes, 0);   // reference path reports no ring traffic
    EXPECT_GT(ring.wire_bytes, 0);
    EXPECT_DOUBLE_EQ(ref.final_score, ring.final_score);
  }
}

TEST(DistTrainerTest, EgeriaShardedRunMatchesReferenceAndShrinksState) {
  DistWorkload w = MakeDistWorkload("tiny");
  DistTrainConfig& cfg = w.cfg;
  cfg.world = 2;
  cfg.enable_egeria = true;

  // Mid-run freeze + reshard (momentum migration as ring messages) over the
  // wire must reproduce the reference's weights bitwise.
  cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
  DistTrainResult ring = TrainDataParallel(w.make_model, *w.train, *w.val, cfg);
  cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
  DistTrainResult ref = TrainDataParallel(w.make_model, *w.train, *w.val, cfg);

  // Identical training: same freeze timeline, same weights, bit for bit.
  EXPECT_TRUE(ring.replicas_consistent);
  EXPECT_GT(ring.final_frontier, 0) << "controller froze nothing";
  EXPECT_EQ(ring.final_frontier, ref.final_frontier);
  EXPECT_EQ(ring.params_hash, ref.params_hash);

  // The freeze->reshard protocol: the initial partition plus one event per
  // frontier move; every move strictly shrinks the active space, the ring
  // payload, and the per-rank optimizer state (Fig. 10's scaling argument).
  ASSERT_GE(ring.reshard_events.size(), 2U) << "no reshard after freezing";
  EXPECT_EQ(ring.reshard_events[0].frontier, 0);
  for (size_t i = 1; i < ring.reshard_events.size(); ++i) {
    const DistReshardEvent& prev = ring.reshard_events[i - 1];
    const DistReshardEvent& ev = ring.reshard_events[i];
    EXPECT_GT(ev.frontier, prev.frontier);
    EXPECT_LT(ev.active_elems, prev.active_elems);
    EXPECT_LT(ev.payload_bytes_per_iter, prev.payload_bytes_per_iter);
    EXPECT_LT(ev.opt_state_bytes_per_rank, prev.opt_state_bytes_per_rank);
  }
  EXPECT_EQ(ref.reshard_events.size(), 0U);
  EXPECT_LT(ring.bytes_synced, ring.bytes_full_model);

  // ZeRO-1 memory claim: each rank holds ~1/world of the active velocity.
  const DistReshardEvent& first = ring.reshard_events[0];
  EXPECT_LE(first.opt_state_bytes_per_rank,
            first.active_elems * static_cast<int64_t>(sizeof(float)) / cfg.world +
                static_cast<int64_t>(sizeof(float)));
}

uint64_t HashParams(ChainModel& model) {
  uint64_t hash = kFnv64Offset;
  for (const Parameter* p : model.ParamsFrom(0)) {
    hash = Fnv1a64(p->value.Data(), static_cast<size_t>(p->value.NumEl()) * sizeof(float),
                   hash);
  }
  return hash;
}

// A world of one is plain single-process training: TrainDataParallel's ring
// at W=1 trains the weights the Trainer's local sync does, bit for bit.
TEST(OneLoop, WorldOfOneMatchesTrainerBitwise) {
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 1;
  w.cfg.epochs = 3;
  const DistTrainResult world = TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
  ASSERT_TRUE(world.status.ok()) << world.status.message;

  std::unique_ptr<ChainModel> model = w.make_model();
  Trainer trainer(*model, *w.train, *w.val, w.cfg);
  const TrainResult single = trainer.Run();
  EXPECT_EQ(world.params_hash, HashParams(*model));
  EXPECT_EQ(world.iterations, single.iterations);
  EXPECT_DOUBLE_EQ(world.final_score, single.final_metric.score);
}

// The ring sync over a one-rank transport is the local sync: under a static
// freeze (a frontier move made by a hook, repartitioned after the update) the
// weights and the freeze events match bit for bit.
TEST(OneLoop, RingSyncAtWorldOneMatchesLocalSyncUnderStaticFreeze) {
  auto run = [](bool ring) {
    DistWorkload w = MakeDistWorkload("tiny");
    w.cfg.epochs = 4;
    std::unique_ptr<ChainModel> model = w.make_model();
    std::unique_ptr<Transport> transport = MakeTcpTransport(TcpTransportOptions{});
    RingSync ring_sync(*transport, w.cfg.momentum, w.cfg.weight_decay);
    StaticFreezeHook hook(/*epoch=*/1, /*stage=*/0);
    Trainer trainer(*model, *w.train, *w.val, w.cfg, ring ? &ring_sync : nullptr);
    trainer.SetFreezeHook(&hook);
    const TrainResult r = trainer.Run();
    return std::make_pair(r, HashParams(*model));
  };
  const auto [local, local_hash] = run(false);
  const auto [ring, ring_hash] = run(true);
  ASSERT_EQ(local.final_frontier, 1);
  EXPECT_EQ(ring_hash, local_hash);
  ASSERT_EQ(ring.freeze_events.size(), local.freeze_events.size());
  for (size_t i = 0; i < ring.freeze_events.size(); ++i) {
    EXPECT_EQ(ring.freeze_events[i].iter, local.freeze_events[i].iter);
    EXPECT_EQ(ring.freeze_events[i].unfreeze, local.freeze_events[i].unfreeze);
    EXPECT_EQ(ring.freeze_events[i].frontier_after, local.freeze_events[i].frontier_after);
  }
}

// Both world syncs drop a stage's momentum when it freezes, so the ring and
// the star reference agree bitwise through an unfreeze as well: the stages
// that come back restart at zero momentum on both. Worlds 2/3/4, over TCP.
TEST(DistFreezing, RingMatchesReferenceThroughFreezeAndUnfreeze) {
  for (int world : {2, 3, 4}) {
    SCOPED_TRACE("world " + std::to_string(world));
    auto run = [&](DistTrainConfig::Reducer reducer) {
      DistWorkload w = MakeDistWorkload("tiny");
      w.cfg.world = world;
      w.cfg.epochs = 10 * world;  // 150-160 iterations at every world size
      w.cfg.enable_egeria = true;
      w.cfg.reducer = reducer;
      // A 20x drop at iteration 100, after the first freeze: one 10x step
      // decay rounds above the unfreeze threshold in float and never unfreezes.
      w.cfg.lr_schedule =
          std::make_shared<StepDecayLr>(0.05F, 0.05F, std::vector<int64_t>{100});
      return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
    };
    const DistTrainResult ref = run(DistTrainConfig::Reducer::kSequentialReference);
    const DistTrainResult ring = run(DistTrainConfig::Reducer::kRingSharded);
    ASSERT_TRUE(ref.replicas_consistent);
    ASSERT_TRUE(ring.replicas_consistent);
    bool froze = false;
    bool unfroze = false;
    for (size_t i = 1; i < ring.reshard_events.size(); ++i) {
      froze = froze || ring.reshard_events[i].frontier > ring.reshard_events[i - 1].frontier;
      unfroze = unfroze || (froze && ring.reshard_events[i].frontier <
                                         ring.reshard_events[i - 1].frontier);
    }
    ASSERT_TRUE(unfroze) << "no freeze followed by an unfreeze; the pin is hollow";
    EXPECT_EQ(ring.params_hash, ref.params_hash);
    EXPECT_EQ(ring.final_frontier, ref.final_frontier);
  }
}

// Harness-level pin over whole freezing runs of the `tiny` workload: the ring
// against the sequential reference reducer, both over TCP, with the Egeria
// controller moving the frontier mid-run (stages leave the ring payload,
// shards repartition). Worlds 2/3/4; world 4 is pinned nowhere else.
TEST(DistFreezing, RingMatchesReferenceBitwiseAcrossWorlds) {
  for (int world : {2, 3, 4}) {
    SCOPED_TRACE("world " + std::to_string(world));
    auto run = [&](DistTrainConfig::Reducer reducer) {
      DistWorkload w = MakeDistWorkload("tiny");
      w.cfg.world = world;
      w.cfg.enable_egeria = true;
      w.cfg.reducer = reducer;
      return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
    };
    const DistTrainResult ref = run(DistTrainConfig::Reducer::kSequentialReference);
    const DistTrainResult ring = run(DistTrainConfig::Reducer::kRingSharded);

    ASSERT_TRUE(ref.replicas_consistent);
    ASSERT_TRUE(ring.replicas_consistent);
    EXPECT_GT(ring.final_frontier, 0)
        << "controller froze nothing; the mid-run reshard path went untested";
    EXPECT_EQ(ring.params_hash, ref.params_hash) << "ring vs reference";
    EXPECT_EQ(ring.final_frontier, ref.final_frontier);
    EXPECT_EQ(ring.bytes_synced, ref.bytes_synced);
  }
}

// The ring round times both collectives as the rank's comm_wait phase (the
// input of egeria_trace --diagnose's straggler verdict) and
// the owner's shard step as its opt phase, on every rank.
TEST(DistPhases, RingRoundRecordsCommWaitAndOptOnEveryRank) {
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 2;
  w.cfg.epochs = 2;
  const obs::Histogram& comm_wait = obs::GetHistogram("trainer.comm_wait_s");
  const int64_t before = comm_wait.Count();
  std::vector<RankTrainResult> results(static_cast<size_t>(w.cfg.world));
  RunTcpWorld(w.cfg.world, [&](int r, Transport& transport) {
    results[static_cast<size_t>(r)] =
        TrainRank(transport, w.make_model, *w.train, *w.val, w.cfg);
  });
  const int64_t iterations = results[0].iterations;
  ASSERT_GT(iterations, 0);
  for (const RankTrainResult& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    EXPECT_EQ(r.iterations, iterations);
    EXPECT_GT(r.opt_seconds, 0.0) << "rank " << r.rank;
  }
  // One reduce-scatter and one all-gather per rank per iteration.
  EXPECT_EQ(comm_wait.Count() - before, 2 * w.cfg.world * iterations);
}

// TrainRank moves each rank's thread to a CPU of its own before training
// (dist_trainer.cc, StartOnOwnCpu) and must then give the thread back every
// CPU it was allowed before, not all CPUs and not just the one.
TEST(DistPlacement, TrainRankRestoresTheThreadsCpuAffinity) {
  cpu_set_t all;
  CPU_ZERO(&all);
  ASSERT_EQ(0, sched_getaffinity(0, sizeof(all), &all));
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int cpu = 0, picked = 0; cpu < CPU_SETSIZE && picked < 2; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &two);
      ++picked;
    }
  }
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 2;
  w.cfg.epochs = 1;
  std::vector<RankTrainResult> results(static_cast<size_t>(w.cfg.world));
  std::vector<int> set_rc(static_cast<size_t>(w.cfg.world), -1);
  std::vector<cpu_set_t> after(static_cast<size_t>(w.cfg.world));
  RunTcpWorld(w.cfg.world, [&](int r, Transport& transport) {
    const auto i = static_cast<size_t>(r);
    set_rc[i] = sched_setaffinity(0, sizeof(two), &two);
    results[i] = TrainRank(transport, w.make_model, *w.train, *w.val, w.cfg);
    CPU_ZERO(&after[i]);
    sched_getaffinity(0, sizeof(after[i]), &after[i]);
  });
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(set_rc[i], 0);
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.message;
    EXPECT_TRUE(CPU_EQUAL(&after[i], &two)) << "rank " << i;
  }
}

// ---- Checkpoint/restore: the bitwise-resume contract at harness level ----

std::string MakeCkptDir(const std::string& label) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / ("egeria-" + label + "-XXXXXX"))
          .string();
  EXPECT_NE(nullptr, mkdtemp(tmpl.data()));
  return tmpl;
}

// A world that dies mid-run (here: a clean lockstep stop standing in for the
// crash) and restarts against the same checkpoint directory must finish with
// final weights bit-identical to the uninterrupted run — including freeze
// decisions and shard repartitions that happen AFTER the resume point.
TEST(DistResume, SameWorldResumeBitwiseMatchesUninterrupted) {
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 3;
  w.cfg.enable_egeria = true;
  const DistTrainResult ref = TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
  ASSERT_TRUE(ref.replicas_consistent);
  ASSERT_GT(ref.final_frontier, 0) << "workload no longer freezes; test is hollow";

  const std::string dir = MakeCkptDir("dresume");
  DistWorkload crash = MakeDistWorkload("tiny");
  crash.cfg.world = 3;
  crash.cfg.enable_egeria = true;
  crash.cfg.ckpt.dir = dir;
  crash.cfg.ckpt.interval_iters = 7;
  crash.cfg.stop_after_iters = 37;
  const DistTrainResult stopped =
      TrainDataParallel(crash.make_model, *crash.train, *crash.val, crash.cfg);
  EXPECT_TRUE(stopped.stopped_early);
  ASSERT_LT(stopped.iterations, ref.iterations);

  DistWorkload resume = MakeDistWorkload("tiny");
  resume.cfg.world = 3;
  resume.cfg.enable_egeria = true;
  resume.cfg.ckpt.dir = dir;
  resume.cfg.ckpt.interval_iters = 7;
  const DistTrainResult resumed =
      TrainDataParallel(resume.make_model, *resume.train, *resume.val, resume.cfg);
  EXPECT_EQ(resumed.resumed_from_iter, 37);
  EXPECT_TRUE(resumed.replicas_consistent);
  EXPECT_EQ(resumed.final_frontier, ref.final_frontier);
  EXPECT_EQ(resumed.params_hash, ref.params_hash)
      << "resume diverged from the uninterrupted run";
  EXPECT_EQ(resumed.iterations, ref.iterations);
  std::filesystem::remove_all(dir);
}

// Elastic restart: a world-4 checkpoint resumed at world 3. The saved momentum
// shards are re-folded through the reduction-contract partition, and the
// resumed world's replicas stay bit-identical.
// (DistributedProcess.ElasticRestartWorld4To3MatchesInProcessReference pins
// the resumed weights of a world of OS processes to this harness's.)
TEST(DistResume, ElasticResumeWorld4To3KeepsReplicasConsistent) {
  const std::string dir = MakeCkptDir("elastic");

  DistWorkload stage = MakeDistWorkload("tiny");
  stage.cfg.world = 4;
  stage.cfg.enable_egeria = true;
  stage.cfg.ckpt.dir = dir;
  stage.cfg.ckpt.interval_iters = 6;
  stage.cfg.stop_after_iters = 24;
  const DistTrainResult staged =
      TrainDataParallel(stage.make_model, *stage.train, *stage.val, stage.cfg);
  ASSERT_TRUE(staged.stopped_early);
  const auto latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iter, 24);
  EXPECT_EQ(latest->world, 4);  // Written by world 4, about to resume at 3.

  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = 3;
  w.cfg.enable_egeria = true;
  w.cfg.ckpt.dir = dir;
  w.cfg.ckpt.interval_iters = 6;
  const DistTrainResult resumed = TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);

  EXPECT_EQ(resumed.resumed_from_iter, 24);
  EXPECT_TRUE(resumed.replicas_consistent);
  std::filesystem::remove_all(dir);
}

// Async checkpointing persists bitwise the same bytes the inline save would
// have: same manifests (per-file sizes AND content hashes), and a resume from
// either reproduces the uninterrupted run exactly.
TEST(AsyncCheckpoint, BackgroundSavePersistsBitwiseIdenticalState) {
  for (int world : {1, 3}) {
    SCOPED_TRACE("world " + std::to_string(world));
    const std::string dir_async = MakeCkptDir("async");
    const std::string dir_sync = MakeCkptDir("sync");

    auto train = [&](const std::string& dir, bool async_save, int64_t stop_after) {
      DistWorkload w = MakeDistWorkload("tiny");
      w.cfg.world = world;
      w.cfg.enable_egeria = true;
      w.cfg.ckpt.dir = dir;
      w.cfg.ckpt.interval_iters = 4;
      w.cfg.ckpt.async_save = async_save;
      w.cfg.stop_after_iters = stop_after;
      return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
    };
    const DistTrainResult a = train(dir_async, true, 10);
    const DistTrainResult s = train(dir_sync, false, 10);
    ASSERT_TRUE(a.stopped_early);
    ASSERT_TRUE(s.stopped_early);
    EXPECT_EQ(a.params_hash, s.params_hash);

    const auto ma = FindLatestCheckpoint(dir_async);
    const auto ms = FindLatestCheckpoint(dir_sync);
    ASSERT_TRUE(ma.has_value());
    ASSERT_TRUE(ms.has_value());
    EXPECT_EQ(ma->iter, 10);
    EXPECT_EQ(ms->iter, ma->iter);
    // Same files, same bytes, same content hashes — capture-then-background
    // write changed WHEN the bytes landed, not WHICH bytes.
    std::map<std::string, std::pair<int64_t, uint64_t>> af;
    for (const ManifestFile& f : ma->files) {
      af[f.name] = {f.bytes, f.fnv};
    }
    ASSERT_EQ(ms->files.size(), af.size());
    for (const ManifestFile& f : ms->files) {
      const auto it = af.find(f.name);
      ASSERT_NE(it, af.end()) << "async manifest missing " << f.name;
      EXPECT_EQ(it->second.first, f.bytes) << f.name;
      EXPECT_EQ(it->second.second, f.fnv)
          << f.name << " persisted different bytes under the async writer";
    }

    // Both resumes continue to the same final weights as each other.
    const DistTrainResult ra = train(dir_async, true, -1);
    const DistTrainResult rs = train(dir_sync, false, -1);
    EXPECT_EQ(ra.resumed_from_iter, 10);
    EXPECT_EQ(rs.resumed_from_iter, 10);
    EXPECT_TRUE(ra.replicas_consistent);
    EXPECT_EQ(ra.params_hash, rs.params_hash)
        << "async-saved checkpoint resumed to different weights";
    std::filesystem::remove_all(dir_async);
    std::filesystem::remove_all(dir_sync);
  }
}

}  // namespace
}  // namespace egeria
