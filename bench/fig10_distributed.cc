// Figure 10: distributed data-parallel training performance.
//
// Paper: on the 5-node/2xV100 cluster, Egeria beats both the vanilla framework and
// ByteScheduler (which only reschedules communication); Egeria composes with
// ByteScheduler, and the frozen layers' excluded traffic adds up to ~5% for
// ResNet-50 on top of the compute saving.
//
// Protocol: per-stage compute costs and gradient sizes are measured on the real
// single-node model, then fed into the discrete-event iteration simulator under the
// leaf-spine/ring-all-reduce network model. A real 2-worker run of threads, with
// the actual all-reduce over TCP between them, validates the traffic reduction.
//
// `fig10_distributed --transport=tcp` additionally launches worlds of 2/3/4
// egeria_worker OS processes over the TCP ring transport and reports the
// MEASURED all-reduce seconds per iteration at each freeze frontier, next to
// the NetworkModel projection for the same payload — the paper's "frozen
// layers leave synchronization" claim as wall-clock numbers on a real wire.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/workloads.h"
#include "src/distributed/comm_scheduler.h"
#include "src/distributed/dist_trainer.h"
#include "src/distributed/network_model.h"
#include "src/distributed/process_launcher.h"
#include "src/util/timer.h"

namespace egeria {
namespace {

// Measures per-stage compute (fp+bp proportionally attributed) and gradient bytes.
std::vector<StageCost> MeasureStages(bench::Workload& w, int iters) {
  DataLoader loader(*w.train, w.cfg.batch_size, true, w.cfg.seed);
  Sgd opt(0.9F, 0.0F);
  WallTimer fp_timer;
  double fp_total = 0.0;
  double bp_total = 0.0;
  for (int i = 0; i < iters; ++i) {
    Batch batch = loader.GetBatch(i % loader.NumBatches());
    w.model->SetBatch(batch);
    fp_timer.Reset();
    Tensor logits = w.model->ForwardFrom(0, batch.input);
    fp_total += fp_timer.ElapsedSeconds();
    LossResult loss = TaskLoss(w.cfg.task, logits, batch);
    w.model->ZeroGrad();
    fp_timer.Reset();
    w.model->BackwardTo(0, loss.grad);
    bp_total += fp_timer.ElapsedSeconds();
    opt.Step(w.model->ParamsFrom(0), 0.01F);
  }
  fp_total /= iters;
  bp_total /= iters;
  // Attribute compute proportionally to stage parameter mass (documented
  // approximation; the totals are real measurements).
  const int n = w.model->NumStages();
  std::vector<StageCost> stages(static_cast<size_t>(n));
  int64_t total_params = w.model->TotalParamCount();
  for (int i = 0; i < n; ++i) {
    const double frac = static_cast<double>(w.model->StageParamCount(i)) /
                        static_cast<double>(total_params);
    stages[static_cast<size_t>(i)].fp_seconds = fp_total * frac;
    stages[static_cast<size_t>(i)].bp_seconds = bp_total * frac;
    stages[static_cast<size_t>(i)].grad_bytes =
        w.model->StageParamCount(i) * static_cast<int64_t>(sizeof(float));
  }
  return stages;
}

void SimTable(const char* label, const std::vector<StageCost>& stages, int frozen) {
  std::printf("\n-- %s (frozen prefix: %d stages) --\n", label, frozen);
  Table table({"cluster", "baseline it/s", "bytescheduler it/s", "egeria it/s",
               "egeria+BS it/s", "egeria traffic cut"});
  for (int nodes : {2, 3, 4, 5}) {
    ClusterConfig cluster;
    cluster.num_nodes = nodes;
    cluster.gpus_per_node = 2;
    // Communication-relevant regime: the paper's 40 Gbps NICs against GPU-scale
    // compute; our CPU stage times are large, so scale bandwidth down to keep the
    // compute:communication ratio comparable.
    cluster.inter_node_gbps = 0.05;
    cluster.intra_node_gbps = 0.4;
    NetworkModel net(cluster);
    const auto fifo = SimulateIteration(stages, net, CommPolicy::kFifo, 0);
    const auto bs = SimulateIteration(stages, net, CommPolicy::kByteScheduler, 0);
    const auto eg = SimulateIteration(stages, net, CommPolicy::kFifo, frozen, true);
    const auto eg_bs =
        SimulateIteration(stages, net, CommPolicy::kByteScheduler, frozen, true);
    const double traffic_cut = 1.0 - eg.comm_seconds / fifo.comm_seconds;
    table.AddRow({std::to_string(nodes) + "x2",
                  Table::Num(1.0 / fifo.iteration_seconds, 2),
                  Table::Num(1.0 / bs.iteration_seconds, 2),
                  Table::Num(1.0 / eg.iteration_seconds, 2),
                  Table::Num(1.0 / eg_bs.iteration_seconds, 2),
                  Table::Pct(traffic_cut)});
  }
  table.Print();
}

// Resolves the worker binary: $EGERIA_WORKER_BIN, else next to this binary.
std::string WorkerBinary() {
  if (const char* env = std::getenv("EGERIA_WORKER_BIN")) {
    return env;
  }
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    const size_t slash = dir.rfind('/');
    if (slash != std::string::npos) {
      return dir.substr(0, slash) + "/egeria_worker";
    }
  }
  return "./egeria_worker";
}

// One multi-process run of `world` ranks; fills wall seconds, cleans its logs.
bool RunTcpWorld(const std::string& worker, int world, SpawnResult* out,
                 double* wall_s) {
  SpawnOptions options;
  options.worker_binary = worker;
  options.world = world;
  options.common_args = {"--workload=fig10", "--egeria=1"};
  char tmpl[] = "/tmp/egeria-fig10-XXXXXX";
  if (mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return false;
  }
  options.log_dir = tmpl;
  options.timeout_s = 600.0;
  WallTimer timer;
  *out = SpawnWorld(options);
  *wall_s = timer.ElapsedSeconds();
  for (const std::string& log : out->log_paths) {
    unlink(log.c_str());
  }
  unlink((options.log_dir + "/rendezvous").c_str());
  rmdir(options.log_dir.c_str());
  if (!out->ok) {
    std::fprintf(stderr, "world %d failed: %s\n", world, out->error.c_str());
    return false;
  }
  return true;
}

// Multi-process measurement: worlds of real OS processes over the TCP ring.
int TcpMain() {
  std::printf("== Figure 10 (measured): egeria_worker processes over the TCP ring ==\n");
  std::printf("Each row is one freeze-frontier segment of a real multi-process training\n"
              "run: measured mean all-reduce seconds per iteration on rank 0's wire,\n"
              "next to the NetworkModel projection for the same payload.\n"
              "(Measured time includes peer skew — a rank blocked on a slower neighbor\n"
              "counts the wait — so tiny payloads bottom out at a latency+skew floor\n"
              "instead of tracking bytes all the way down.)\n");
  const std::string worker = WorkerBinary();
  for (int world : {2, 3, 4}) {
    SpawnResult run;
    double wall = 0.0;
    if (!RunTcpWorld(worker, world, &run, &wall)) {
      return 1;
    }
    ClusterConfig cluster;
    cluster.num_nodes = world;
    cluster.gpus_per_node = 1;
    NetworkModel net(cluster);
    std::printf("\n-- world %d (%d OS processes, wall %.1fs) --\n", world, world, wall);
    Table table({"iter", "frontier", "payload B/iter", "measured allreduce s/iter",
                 "projected s/iter (net model)"});
    for (const auto& ev : run.reshard_timeline) {
      const long long payload = std::atoll(ev.at("payload_bytes").c_str());
      table.AddRow({ev.at("iter"), ev.at("frontier"), std::to_string(payload),
                    ev.at("allreduce_s_per_iter"),
                    Table::Num(net.AllReduceSeconds(payload), 6)});
    }
    table.Print();
    const auto& r0 = run.rank_results[0];
    std::printf("final frontier %s | replica hash %s | rank0 wire bytes %s | "
                "total allreduce %ss\n",
                r0.at("final_frontier").c_str(), r0.at("params_hash").c_str(),
                r0.at("wire_bytes").c_str(), r0.at("allreduce_seconds").c_str());
    bool consistent = true;
    for (const auto& rr : run.rank_results) {
      consistent = consistent && rr.at("params_hash") == r0.at("params_hash");
    }
    std::printf("replicas bitwise-consistent across processes: %s\n",
                consistent ? "yes" : "NO");
  }
  return 0;
}

int Main() {
  std::printf("== Figure 10: distributed training performance ==\n");
  std::printf("Paper: Egeria > ByteScheduler > baseline; Egeria composes with BS; frozen\n"
              "layers cut synchronization traffic.\n");

  {
    bench::Workload w = bench::MakeResNet50Workload(81, 4);
    auto stages = MeasureStages(w, 6);
    SimTable("ResNet-50 (measured stage costs)", stages,
             std::max(1, w.model->NumStages() / 3));
  }
  {
    bench::Workload w = bench::MakeTransformerWorkload(false, 82, 4);
    auto stages = MeasureStages(w, 6);
    SimTable("Transformer-Base (measured stage costs)", stages,
             std::max(1, w.model->NumStages() / 2));
  }

  // Real threaded 2-worker validation of the traffic reduction, run through both
  // transports: the ZeRO-1 ring (default) and the sequential reference reducer.
  // Same reduction contract -> identical weights, but the ring moves 2(W-1)/W of
  // the payload per link instead of the star's 2(W-1), and each rank holds only
  // its shard of the optimizer state — shrinking further as stages freeze.
  std::printf("\n-- Real 2-worker all-reduce validation (ring-sharded vs reference) --\n");
  auto make_model = []() -> std::unique_ptr<ChainModel> {
    Rng rng(83);
    CifarResNetConfig mcfg;
    mcfg.blocks_per_stage = 1;
    mcfg.base_width = 6;
    mcfg.num_classes = 4;
    return PartitionIntoChain("r", BuildCifarResNetBlocks(mcfg, rng),
                              PartitionConfig{.target_modules = 4});
  };
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.num_samples = 256;
  dcfg.height = 10;
  dcfg.width = 10;
  dcfg.noise_std = 0.5F;
  SyntheticImageDataset train(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 64;
  SyntheticImageDataset val(vcfg);
  DistTrainConfig cfg;
  cfg.world = 2;
  cfg.epochs = bench::ScaledEpochs(16);
  cfg.batch_size = 8;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.enable_egeria = true;
  cfg.egeria.eval_interval_n = 4;
  cfg.egeria.window_w = 3;
  cfg.egeria.tolerance_coef = 0.4;
  cfg.egeria.enable_cache = false;
  cfg.egeria.ref_update_evals = 2;
  cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
  DistTrainResult r = TrainDataParallel(make_model, train, val, cfg);
  cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
  DistTrainResult ref = TrainDataParallel(make_model, train, val, cfg);

  std::printf("replicas consistent: %s | final acc: %.3f | frozen frontier: %d\n",
              r.replicas_consistent ? "yes" : "NO", r.final_display, r.final_frontier);
  std::printf("ring weights bitwise-match reference reducer: %s\n",
              r.params_hash == ref.params_hash ? "yes" : "NO");
  std::printf("gradient traffic: %lld bytes vs %lld full-model bytes (%.1f%% saved)\n",
              static_cast<long long>(r.bytes_synced),
              static_cast<long long>(r.bytes_full_model),
              100.0 * (1.0 - static_cast<double>(r.bytes_synced) /
                                 static_cast<double>(r.bytes_full_model)));
  // Total bytes moved is 2(W-1) x payload for both transports; the ring's win is
  // the bottleneck link: every rank carries wire/W, while the star concentrates
  // the whole 2(W-1) x payload on rank 0's link.
  std::printf("ring wire bytes: %lld total, %lld per rank link "
              "(star pushes %lld through rank 0 alone; %dx the ring's busiest link)\n",
              static_cast<long long>(r.wire_bytes),
              static_cast<long long>(r.wire_bytes / cfg.world),
              static_cast<long long>(2 * (cfg.world - 1) * r.bytes_synced),
              cfg.world);
  std::printf("freeze->reshard timeline (payload and per-rank optimizer state):\n");
  for (const DistReshardEvent& ev : r.reshard_events) {
    std::printf("  iter %4lld frontier %d: active %lld elems, payload %lld B/iter, "
                "opt state %lld B/rank\n",
                static_cast<long long>(ev.iter), ev.frontier,
                static_cast<long long>(ev.active_elems),
                static_cast<long long>(ev.payload_bytes_per_iter),
                static_cast<long long>(ev.opt_state_bytes_per_rank));
  }
  return 0;
}

}  // namespace
}  // namespace egeria

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transport=tcp") == 0) {
      return egeria::TcpMain();
    }
  }
  return egeria::Main();
}
