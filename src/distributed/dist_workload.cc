#include "src/distributed/dist_workload.h"

#include "src/core/module_partitioner.h"
#include "src/data/synthetic_image.h"
#include "src/models/resnet.h"
#include "src/optim/lr_scheduler.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace egeria {

namespace {

// Egeria controller settings every dist workload shares: short eval cadence
// so small runs still freeze.
void PresetEgeria(DistTrainConfig& cfg) {
  cfg.enable_egeria = false;
  cfg.egeria.eval_interval_n = 4;
  cfg.egeria.window_w = 3;
  cfg.egeria.tolerance_coef = 0.4;
  cfg.egeria.enable_cache = false;
  cfg.egeria.ref_update_evals = 2;
}

}  // namespace

DistWorkload MakeDistWorkload(const std::string& name) {
  DistWorkload w;
  w.name = name;
  if (name == "tiny") {
    w.make_model = []() -> std::unique_ptr<ChainModel> {
      Rng rng(41);
      CifarResNetConfig mcfg;
      mcfg.blocks_per_stage = 1;
      mcfg.base_width = 4;
      mcfg.num_classes = 4;
      return PartitionIntoChain("r", BuildCifarResNetBlocks(mcfg, rng),
                                PartitionConfig{.target_modules = 3});
    };
    SyntheticImageConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.num_samples = 128;
    dcfg.height = 10;
    dcfg.width = 10;
    dcfg.noise_std = 0.4F;
    w.train = std::make_unique<SyntheticImageDataset>(dcfg);
    auto vcfg = dcfg;
    vcfg.sample_salt = 999999;
    vcfg.num_samples = 32;
    w.val = std::make_unique<SyntheticImageDataset>(vcfg);
    w.cfg.epochs = 20;
    w.cfg.batch_size = 8;
    w.cfg.task.kind = TaskKind::kClassification;
    w.cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
    PresetEgeria(w.cfg);
    return w;
  }
  if (name == "fig10") {
    w.make_model = []() -> std::unique_ptr<ChainModel> {
      Rng rng(83);
      CifarResNetConfig mcfg;
      mcfg.blocks_per_stage = 1;
      mcfg.base_width = 20;
      mcfg.num_classes = 4;
      return PartitionIntoChain("r", BuildCifarResNetBlocks(mcfg, rng),
                                PartitionConfig{.target_modules = 4});
    };
    SyntheticImageConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.num_samples = 256;
    dcfg.height = 12;
    dcfg.width = 12;
    dcfg.noise_std = 0.5F;
    w.train = std::make_unique<SyntheticImageDataset>(dcfg);
    auto vcfg = dcfg;
    vcfg.sample_salt = 1000000;
    vcfg.num_samples = 64;
    w.val = std::make_unique<SyntheticImageDataset>(vcfg);
    w.cfg.epochs = 12;
    w.cfg.batch_size = 8;
    w.cfg.task.kind = TaskKind::kClassification;
    w.cfg.lr_schedule = std::make_shared<ConstantLr>(0.05F);
    PresetEgeria(w.cfg);
    return w;
  }
  EGERIA_CHECK_MSG(false, "unknown dist workload: " + name);
  return w;  // Unreached.
}

}  // namespace egeria
