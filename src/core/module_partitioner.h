// Layer-module partitioner (paper S4.2.1 and Figure 11).
//
// Egeria freezes *layer modules* — groups of consecutive layers — rather than single
// layers: modules have coherent training progress and small individual layers are too
// noisy under SGD. The paper parses the model by structure and parameter size: light
// front stages are evaluated as a whole while heavy deep stages are split into
// similar-sized modules (ResNet-56: layer1 5% and layer2 20% whole; layer3 75% split
// five ways, with 3.7-3.8 separate because the last module is never frozen).
//
// This partitioner reproduces that policy: greedy grouping of the block list into
// `target_modules` contiguous groups of roughly equal parameter mass, with the head
// block always kept in the final (never-frozen) module. A name-pattern override pins
// blocks whose name contains the pattern to module boundaries (the paper's regex
// granularity config).
#ifndef EGERIA_SRC_CORE_MODULE_PARTITIONER_H_
#define EGERIA_SRC_CORE_MODULE_PARTITIONER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/models/chain_model.h"
#include "src/nn/module.h"

namespace egeria {

struct PartitionConfig {
  int target_modules = 7;
  // Any block whose name contains this substring starts a new module (the paper's
  // layer-granularity regex option). Empty disables. The initializer keeps
  // `PartitionConfig{.target_modules = N}` free of -Wmissing-field-initializers.
  std::string boundary_pattern = {};
};

struct PartitionSummary {
  std::vector<std::string> module_names;
  std::vector<int64_t> module_params;
  std::vector<int> blocks_per_module;
};

// Groups `blocks` into a StageChainModel according to `cfg`. `summary` (optional)
// receives the resulting layout for logging / Fig. 11 rendering.
std::unique_ptr<StageChainModel> PartitionIntoChain(
    const std::string& model_name, std::vector<std::unique_ptr<Module>> blocks,
    const PartitionConfig& cfg, PartitionSummary* summary = nullptr);

}  // namespace egeria

#endif  // EGERIA_SRC_CORE_MODULE_PARTITIONER_H_
