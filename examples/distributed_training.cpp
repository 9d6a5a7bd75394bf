// Data-parallel training with the controller-worker layout (paper Fig. 5):
// two worker threads with model replicas, a real gradient all-reduce, and the
// Egeria controller on worker 0 broadcasting freeze decisions. Frozen stages drop
// out of the synchronization payload.
#include <cstdio>

#include "src/core/module_partitioner.h"
#include "src/data/synthetic_image.h"
#include "src/distributed/comm_scheduler.h"
#include "src/distributed/dist_trainer.h"
#include "src/distributed/network_model.h"
#include "src/models/resnet.h"
#include "src/optim/lr_scheduler.h"

using namespace egeria;

int main() {
  auto make_model = []() -> std::unique_ptr<ChainModel> {
    Rng rng(21);
    CifarResNetConfig cfg;
    cfg.blocks_per_stage = 2;
    cfg.base_width = 8;
    cfg.num_classes = 6;
    return PartitionIntoChain("resnet14", BuildCifarResNetBlocks(cfg, rng),
                              PartitionConfig{.target_modules = 4});
  };

  SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 6;
  data_cfg.num_samples = 384;
  data_cfg.height = 12;
  data_cfg.width = 12;
  data_cfg.noise_std = 0.4F;
  SyntheticImageDataset train(data_cfg);
  auto val_cfg = data_cfg;
  val_cfg.sample_salt = 1000000;
  val_cfg.num_samples = 96;
  SyntheticImageDataset val(val_cfg);

  DistTrainConfig cfg;
  cfg.world = 2;  // two workers (threads), each with a model replica
  cfg.epochs = 14;
  cfg.batch_size = 8;
  cfg.task.kind = TaskKind::kClassification;
  cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
  cfg.enable_egeria = true;
  cfg.egeria.eval_interval_n = 6;
  cfg.egeria.window_w = 3;
  cfg.egeria.tolerance_coef = 0.4;
  cfg.egeria.enable_cache = false;
  cfg.egeria.ref_update_evals = 2;

  std::printf("training on %d workers with real all-reduce...\n", cfg.world);
  DistTrainResult result = TrainDataParallel(make_model, train, val, cfg);

  std::printf("final accuracy:       %.1f%%\n", result.final_display * 100);
  std::printf("replicas consistent:  %s\n", result.replicas_consistent ? "yes" : "NO");
  std::printf("frozen frontier:      %d\n", result.final_frontier);
  std::printf("gradient traffic:     %lld bytes (full model would be %lld, %.1f%% saved)\n",
              static_cast<long long>(result.bytes_synced),
              static_cast<long long>(result.bytes_full_model),
              100.0 * (1.0 - static_cast<double>(result.bytes_synced) /
                                 static_cast<double>(result.bytes_full_model)));

  // What the same frozen prefix buys on the paper's cluster (cost model).
  std::printf("\nprojected iteration speedup on a 5x2 GPU cluster (cost model):\n");
  std::vector<StageCost> stages(6);
  for (auto& s : stages) {
    s.fp_seconds = 0.004;
    s.bp_seconds = 0.008;
    s.grad_bytes = 500000;
  }
  ClusterConfig cluster;
  cluster.num_nodes = 5;
  cluster.gpus_per_node = 2;
  NetworkModel net(cluster);
  const auto full = SimulateIteration(stages, net, CommPolicy::kFifo, 0);
  const auto frozen = SimulateIteration(stages, net, CommPolicy::kFifo,
                                        std::max(1, result.final_frontier), true);
  std::printf("  %.1f%% faster per iteration with %d frozen stages\n",
              100.0 * (1.0 - frozen.iteration_seconds / full.iteration_seconds),
              std::max(1, result.final_frontier));
  return 0;
}
