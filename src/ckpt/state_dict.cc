#include "src/ckpt/state_dict.h"

#include <cstring>

#include "src/util/logging.h"

namespace egeria {

namespace {

// Depth-first walk collecting LocalStateTensors with positional names.
void CollectBuffers(Module& m, const std::string& prefix, int& ordinal,
                    std::vector<StateEntry>& out) {
  for (auto& [tag, tensor] : m.LocalStateTensors()) {
    out.emplace_back(prefix + "." + std::to_string(ordinal) + "." + tag, tensor);
  }
  if (!m.LocalStateTensors().empty()) {
    ++ordinal;
  }
  for (Module* child : m.Children()) {
    CollectBuffers(*child, prefix, ordinal, out);
  }
}

}  // namespace

std::vector<StateEntry> CollectModelState(ChainModel& model) {
  std::vector<StateEntry> out;
  for (const auto& [name, param] : NamedParams(model)) {
    out.emplace_back(name, &param->value);
  }
  auto buffers = CollectModelBuffers(model);
  for (StateEntry& e : buffers) {
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<StateEntry> CollectModelBuffers(ChainModel& model) {
  std::vector<StateEntry> out;
  for (int i = 0; i < model.NumStages(); ++i) {
    int ordinal = 0;
    const std::string prefix = "b" + std::to_string(i);
    for (Module* m : model.StageModules(i)) {
      CollectBuffers(*m, prefix, ordinal, out);
    }
  }
  return out;
}

std::vector<std::pair<std::string, Parameter*>> NamedParams(ChainModel& model) {
  std::vector<std::pair<std::string, Parameter*>> out;
  for (int i = 0; i < model.NumStages(); ++i) {
    int j = 0;
    for (Parameter* p : model.StageParams(i)) {
      std::string key = "p" + std::to_string(i) + "." + std::to_string(j);
      if (!p->name.empty()) {
        key += ":" + p->name;
      }
      out.emplace_back(std::move(key), p);
      ++j;
    }
  }
  return out;
}

Checkpoint ExportModelState(ChainModel& model) {
  Checkpoint ckpt;
  for (const auto& [name, tensor] : CollectModelState(model)) {
    ckpt.emplace(name, tensor->Clone());
  }
  return ckpt;
}

bool SaveModelState(const std::string& path, ChainModel& model) {
  return SaveCheckpoint(path, ExportModelState(model));
}

bool LoadModelState(const Checkpoint& ckpt, ChainModel& model) {
  for (auto& [name, tensor] : CollectModelState(model)) {
    const auto it = ckpt.find(name);
    if (it == ckpt.end()) {
      EGERIA_LOG(kError) << "state dict missing entry " << name;
      return false;
    }
    if (it->second.NumEl() != tensor->NumEl()) {
      EGERIA_LOG(kError) << "state dict entry " << name << " has " << it->second.NumEl()
                         << " elements, model expects " << tensor->NumEl();
      return false;
    }
    // Preserve the live tensor's shape (stored shape already matched by count);
    // raw byte copy keeps the restore bitwise.
    std::memcpy(tensor->Data(), it->second.Data(),
                static_cast<size_t>(tensor->NumEl()) * sizeof(float));
  }
  return true;
}

bool LoadModelStateFile(const std::string& path, ChainModel& model) {
  Checkpoint ckpt;
  if (!LoadCheckpoint(path, ckpt)) {
    return false;
  }
  return LoadModelState(ckpt, model);
}

std::string ReplicaBufferName(const std::string& name, int replica) {
  return replica == 0 ? name : name + "@r" + std::to_string(replica);
}

bool LoadModelBuffers(const Checkpoint& ckpt, int replica, ChainModel& model) {
  for (auto& [name, tensor] : CollectModelBuffers(model)) {
    const auto it = ckpt.find(ReplicaBufferName(name, replica));
    if (it == ckpt.end() || it->second.NumEl() != tensor->NumEl()) {
      EGERIA_LOG(kError) << "replica " << replica << " buffers: missing/misshapen entry "
                         << name;
      return false;
    }
    std::memcpy(tensor->Data(), it->second.Data(),
                static_cast<size_t>(tensor->NumEl()) * sizeof(float));
  }
  return true;
}

uint64_t HashModelState(ChainModel& model) {
  uint64_t h = kFnv64Offset;
  for (const auto& [name, tensor] : CollectModelState(model)) {
    h = Fnv1a64(tensor->Data(), static_cast<size_t>(tensor->NumEl()) * sizeof(float), h);
  }
  return h;
}

}  // namespace egeria
