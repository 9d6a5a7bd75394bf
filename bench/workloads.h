// Shared workload factories for the figure/table benches.
//
// Every workload is a CPU-scaled stand-in that preserves the paper counterpart's
// *structure* (stage layout, parameter distribution across depth, schedule
// shape). EGERIA_BENCH_SCALE (float, default 1) scales epoch counts for quick
// smoke runs.
#ifndef EGERIA_BENCH_WORKLOADS_H_
#define EGERIA_BENCH_WORKLOADS_H_

#include <cstdlib>
#include <memory>
#include <string>

#include "src/baselines/freeze_baselines.h"
#include "src/core/module_partitioner.h"
#include "src/core/trainer.h"
#include "src/data/synthetic_image.h"
#include "src/data/synthetic_seg.h"
#include "src/data/synthetic_text.h"
#include "src/models/bert.h"
#include "src/models/deeplab.h"
#include "src/models/mobilenetv2.h"
#include "src/models/resnet.h"
#include "src/models/transformer.h"
#include "src/optim/lr_scheduler.h"
#include "src/util/table.h"

namespace egeria {
namespace bench {

inline double BenchScale() {
  const char* env = std::getenv("EGERIA_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double v = std::atof(env);
  return (v > 0.01 && v <= 4.0) ? v : 1.0;
}

inline int ScaledEpochs(int epochs) {
  const int e = static_cast<int>(epochs * BenchScale());
  return e < 2 ? 2 : e;
}

// A complete runnable workload: model + data + training config.
struct Workload {
  std::unique_ptr<ChainModel> model;
  std::unique_ptr<Dataset> train;
  std::unique_ptr<Dataset> val;
  TrainConfig cfg;
  PartitionSummary partition;
  std::string name;
};

// ---- Image classification (CIFAR-style ResNet-56 structure) ----
inline Workload MakeResNet56Workload(uint64_t seed = 3, int epochs = 16) {
  Workload w;
  w.name = "ResNet-56/CIFAR";
  Rng rng(seed);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 9;  // 56-layer structure
  mcfg.base_width = 4;
  mcfg.num_classes = 10;
  w.model = PartitionIntoChain("resnet56", BuildCifarResNetBlocks(mcfg, rng),
                               PartitionConfig{.target_modules = 7}, &w.partition);
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.num_samples = 512;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.noise_std = 0.35F;
  dcfg.seed = 100 + seed;
  w.train = std::make_unique<SyntheticImageDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 128;
  w.val = std::make_unique<SyntheticImageDataset>(vcfg);

  w.cfg.epochs = ScaledEpochs(epochs);
  w.cfg.batch_size = 16;
  w.cfg.task.kind = TaskKind::kClassification;
  const int64_t ipe = 512 / 16;
  w.cfg.lr_schedule = std::make_shared<StepDecayLr>(
      0.07F, 0.1F,
      std::vector<int64_t>{ipe * w.cfg.epochs * 5 / 8, ipe * w.cfg.epochs * 13 / 16});
  w.cfg.val_batches = 6;
  w.cfg.seed = seed;
  w.cfg.egeria.eval_interval_n = 12;
  w.cfg.egeria.window_w = 4;
  w.cfg.egeria.max_bootstrap_iters = ipe * 2;
  w.cfg.egeria.ref_update_evals = 2;  // CV: converges early; aggressive refresh safe
  return w;
}

// ---- ResNet-50 structure (bottlenecks, ImageNet-style stand-in) ----
inline Workload MakeResNet50Workload(uint64_t seed = 4, int epochs = 12) {
  Workload w;
  w.name = "ResNet-50/ImageNet*";
  Rng rng(seed);
  BottleneckResNetConfig mcfg;
  mcfg.stage_blocks = {2, 2, 2, 2};
  mcfg.base_width = 4;
  mcfg.num_classes = 10;
  w.model = PartitionIntoChain("resnet50", BuildBottleneckResNetBlocks(mcfg, rng),
                               PartitionConfig{.target_modules = 6}, &w.partition);
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.num_samples = 384;
  dcfg.height = 16;
  dcfg.width = 16;
  dcfg.noise_std = 0.55F;
  dcfg.seed = 200 + seed;
  w.train = std::make_unique<SyntheticImageDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 96;
  w.val = std::make_unique<SyntheticImageDataset>(vcfg);

  w.cfg.epochs = ScaledEpochs(epochs);
  w.cfg.batch_size = 16;
  w.cfg.task.kind = TaskKind::kClassification;
  const int64_t ipe = 384 / 16;
  w.cfg.lr_schedule = std::make_shared<StepDecayLr>(
      0.08F, 0.1F, std::vector<int64_t>{ipe * w.cfg.epochs * 2 / 3});
  w.cfg.val_batches = 6;
  w.cfg.seed = seed;
  w.cfg.egeria.eval_interval_n = 10;
  w.cfg.egeria.window_w = 4;
  w.cfg.egeria.max_bootstrap_iters = ipe * 2;
  w.cfg.egeria.ref_update_evals = 2;
  return w;
}

// ---- MobileNetV2 ----
inline Workload MakeMobileNetWorkload(uint64_t seed = 5, int epochs = 14) {
  Workload w;
  w.name = "MobileNetV2/CIFAR";
  Rng rng(seed);
  MobileNetV2Config mcfg;
  mcfg.channel_divisor = 4;
  mcfg.num_classes = 10;
  w.model = PartitionIntoChain("mbv2", BuildMobileNetV2Blocks(mcfg, rng),
                               PartitionConfig{.target_modules = 6}, &w.partition);
  SyntheticImageConfig dcfg;
  dcfg.num_classes = 10;
  dcfg.num_samples = 384;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.noise_std = 0.35F;
  dcfg.seed = 300 + seed;
  w.train = std::make_unique<SyntheticImageDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 96;
  w.val = std::make_unique<SyntheticImageDataset>(vcfg);

  w.cfg.epochs = ScaledEpochs(epochs);
  w.cfg.batch_size = 16;
  w.cfg.task.kind = TaskKind::kClassification;
  const int64_t ipe = 384 / 16;
  w.cfg.lr_schedule = std::make_shared<StepDecayLr>(
      0.06F, 0.1F, std::vector<int64_t>{ipe * w.cfg.epochs * 2 / 3});
  w.cfg.val_batches = 6;
  w.cfg.seed = seed;
  w.cfg.egeria.eval_interval_n = 10;
  w.cfg.egeria.window_w = 4;
  w.cfg.egeria.max_bootstrap_iters = ipe * 2;
  w.cfg.egeria.ref_update_evals = 2;
  return w;
}

// ---- DeepLabv3 segmentation ----
inline Workload MakeDeepLabWorkload(uint64_t seed = 6, int epochs = 12) {
  Workload w;
  w.name = "DeepLabv3/VOC*";
  Rng rng(seed);
  DeepLabConfig mcfg;
  mcfg.backbone_blocks_per_stage = 2;
  mcfg.base_width = 6;
  mcfg.num_classes = 5;
  mcfg.output_h = 12;
  mcfg.output_w = 12;
  w.model = PartitionIntoChain("deeplab", BuildDeepLabBlocks(mcfg, rng),
                               PartitionConfig{.target_modules = 5}, &w.partition);
  SyntheticSegConfig dcfg;
  dcfg.num_classes = 5;
  dcfg.num_samples = 256;
  dcfg.height = 12;
  dcfg.width = 12;
  dcfg.seed = 400 + seed;
  w.train = std::make_unique<SyntheticSegDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 64;
  w.val = std::make_unique<SyntheticSegDataset>(vcfg);

  w.cfg.epochs = ScaledEpochs(epochs);
  w.cfg.batch_size = 16;
  w.cfg.task.kind = TaskKind::kSegmentation;
  w.cfg.task.num_classes = 5;
  const int64_t ipe = 256 / 16;
  w.cfg.lr_schedule = std::make_shared<StepDecayLr>(
      0.06F, 0.1F, std::vector<int64_t>{ipe * w.cfg.epochs * 2 / 3});
  w.cfg.val_batches = 4;
  w.cfg.seed = seed;
  w.cfg.egeria.eval_interval_n = 8;
  w.cfg.egeria.window_w = 4;
  w.cfg.egeria.max_bootstrap_iters = ipe * 2;
  w.cfg.egeria.ref_update_evals = 2;
  return w;
}

// ---- Transformer machine translation ----
inline Workload MakeTransformerWorkload(bool tiny, uint64_t seed = 7, int epochs = 14) {
  if (tiny) {
    epochs += 10;  // The tiny model needs more passes to converge.
  }
  Workload w;
  w.name = tiny ? "Transformer-Tiny/WMT*" : "Transformer-Base/WMT*";
  Rng rng(seed);
  TransformerConfig mcfg;
  mcfg.vocab = 32;
  mcfg.dim = tiny ? 16 : 32;
  mcfg.heads = 4;
  mcfg.ffn_dim = tiny ? 32 : 64;
  mcfg.num_encoder_layers = tiny ? 2 : 4;
  mcfg.num_decoder_layers = tiny ? 2 : 4;
  mcfg.max_len = 16;
  auto model = std::make_unique<TransformerChainModel>("mt", mcfg, rng);
  for (int i = 0; i < model->NumStages(); ++i) {
    w.partition.module_names.push_back(model->StageName(i));
    w.partition.module_params.push_back(model->StageParamCount(i));
    w.partition.blocks_per_module.push_back(1);
  }
  w.model = std::move(model);
  SyntheticTranslationConfig dcfg;
  dcfg.vocab = 32;
  dcfg.seq_len = 10;
  dcfg.num_samples = 768;
  dcfg.seed = 500 + seed;
  w.train = std::make_unique<SyntheticTranslationDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 128;
  w.val = std::make_unique<SyntheticTranslationDataset>(vcfg);

  w.cfg.epochs = ScaledEpochs(epochs);
  w.cfg.batch_size = 16;
  w.cfg.task.kind = TaskKind::kTranslation;
  w.cfg.optimizer = TrainConfig::Optim::kAdam;
  w.cfg.weight_decay = 0.0F;
  w.cfg.lr_schedule = std::make_shared<InverseSqrtLr>(3e-3F, 100);
  w.cfg.val_batches = 6;
  w.cfg.seed = seed;
  w.cfg.egeria.eval_interval_n = 12;
  w.cfg.egeria.window_w = 4;
  w.cfg.egeria.quant_mode = QuantMode::kDynamic;
  w.cfg.egeria.max_bootstrap_iters = 96;
  w.cfg.egeria.ref_update_evals = 8;  // MT improves late; stale-ref sawtooth guards
  return w;
}

// ---- BERT fine-tuning on span QA ----
// Builds a "pre-trained" encoder by training briefly on a disjoint QA sample stream,
// then fine-tunes (the paper's SQuAD setup: fine-tuning converges fast and freezing
// suffers less).
inline Workload MakeBertWorkload(uint64_t seed = 8, int epochs = 8,
                                 bool pretrain = true) {
  Workload w;
  w.name = "BERT/SQuAD*";
  Rng rng(seed);
  BertConfig mcfg;
  mcfg.vocab = 32;
  mcfg.dim = 24;
  mcfg.heads = 4;
  mcfg.ffn_dim = 48;
  mcfg.num_layers = 4;
  mcfg.max_len = 20;
  w.model = PartitionIntoChain("bert", BuildBertBlocks(mcfg, rng),
                               PartitionConfig{.target_modules = 6}, &w.partition);
  SyntheticQaConfig dcfg;
  dcfg.vocab = 32;
  dcfg.seq_len = 16;
  dcfg.num_samples = 512;
  dcfg.seed = 600 + seed;
  w.train = std::make_unique<SyntheticQaDataset>(dcfg);
  auto vcfg = dcfg;
  vcfg.sample_salt = 1000000;
  vcfg.num_samples = 128;
  w.val = std::make_unique<SyntheticQaDataset>(vcfg);

  w.cfg.epochs = ScaledEpochs(epochs);
  w.cfg.batch_size = 16;
  w.cfg.task.kind = TaskKind::kQa;
  w.cfg.optimizer = TrainConfig::Optim::kAdam;
  w.cfg.weight_decay = 0.0F;
  const int64_t ipe = 512 / 16;
  w.cfg.lr_schedule =
      std::make_shared<LinearDecayLr>(1e-3F, ipe * w.cfg.epochs);
  w.cfg.val_batches = 6;
  w.cfg.seed = seed;
  w.cfg.egeria.eval_interval_n = 16;
  w.cfg.egeria.window_w = 3;
  w.cfg.egeria.tolerance_coef = 0.4;  // Fine-tuning: fronts converge almost at once.
  w.cfg.egeria.quant_mode = QuantMode::kDynamic;
  w.cfg.egeria.max_bootstrap_iters = 16;  // Fine-tuning: short critical period.
  w.cfg.egeria.ref_update_evals = 4;

  if (pretrain) {
    // "Pre-training": a few epochs on a disjoint sample stream of the same task.
    SyntheticQaConfig pcfg = dcfg;
    pcfg.sample_salt = 7777777;
    SyntheticQaDataset pre(pcfg);
    TrainConfig pretrain_cfg = w.cfg;
    pretrain_cfg.epochs = ScaledEpochs(2);
    pretrain_cfg.enable_egeria = false;
    pretrain_cfg.lr_schedule = std::make_shared<ConstantLr>(2e-3F);
    Trainer warmup(*w.model, pre, *w.val, pretrain_cfg);
    warmup.Run();
  }
  return w;
}

// Runs a workload with the given system; "egeria", "baseline", or a FreezeHook.
inline TrainResult RunSystem(Workload& w, const std::string& system,
                             FreezeHook* hook = nullptr) {
  TrainConfig cfg = w.cfg;
  cfg.enable_egeria = (system == "egeria");
  Trainer trainer(*w.model, *w.train, *w.val, cfg);
  if (hook != nullptr) {
    trainer.SetFreezeHook(hook);
  }
  return trainer.Run();
}

}  // namespace bench
}  // namespace egeria

#endif  // EGERIA_BENCH_WORKLOADS_H_
