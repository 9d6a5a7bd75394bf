// Named training-state enumeration for ChainModels.
//
// A state dict is the ordered list of every tensor that defines a model's
// training state: all parameters (in the canonical StageParams order the
// distributed flat views also use) plus non-parameter buffers reachable
// through StageModules (BatchNorm running statistics via
// Module::LocalStateTensors). Names are positional and therefore stable for a
// fixed architecture:
//   p<stage>.<index>[:<param name>]   parameter values
//   b<stage>.<ordinal>.<tag>          module state buffers (DFS order)
// The human-readable parameter name is a suffix of the key for inspectability
// (tools/egeria_ckpt) but positional prefixes are what guarantee uniqueness.
//
// Bitwise contract: Save followed by Load on an identically-architected model
// reproduces every tensor bit-for-bit (serialization is raw f32 bytes), which
// is what checkpoint/resume's bitwise-resume guarantee is built on.
#ifndef EGERIA_SRC_CKPT_STATE_DICT_H_
#define EGERIA_SRC_CKPT_STATE_DICT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/models/chain_model.h"
#include "src/tensor/serialize.h"

namespace egeria {

using StateEntry = std::pair<std::string, Tensor*>;

// Every state tensor of `model`, in deterministic order. Pointers alias the
// live model; no copies are made.
std::vector<StateEntry> CollectModelState(ChainModel& model);

// The buffer-only subset (b<stage>.* entries). Buffers are PER-REPLICA state
// in data-parallel training: BatchNorm running statistics are a function of
// each rank's local batch history and are never synchronized (they also do
// not feed the training forward, which normalizes with batch statistics — so
// replicas stay weight-consistent while their buffers differ). A world's
// model.state therefore holds every replica's buffers (ReplicaBufferName).
std::vector<StateEntry> CollectModelBuffers(ChainModel& model);

// The key of replica `replica`'s copy of buffer entry `name` in a world's
// model.state: `name` itself for replica 0, "<name>@r<replica>" otherwise.
std::string ReplicaBufferName(const std::string& name, int replica);

// Name -> parameter pointer for the model's full parameter list, using the
// same p<stage>.<index> keys as CollectModelState. The optimizer serializers
// key their per-parameter state by these names.
std::vector<std::pair<std::string, Parameter*>> NamedParams(ChainModel& model);

// Snapshot the model's state dict into a named tensor map (values cloned).
Checkpoint ExportModelState(ChainModel& model);

// Writes the state dict as a Checkpoint file (v2, per-tensor checksums).
bool SaveModelState(const std::string& path, ChainModel& model);

// Strict restore: every state-dict entry must be present with a matching
// element count; extra entries in the file are ignored (they may be optimizer
// state sections sharing the file). Logs and returns false on any mismatch or
// read failure, leaving the model partially updated only on mismatch-free
// prefixes (callers treat false as fatal).
bool LoadModelState(const Checkpoint& ckpt, ChainModel& model);
bool LoadModelStateFile(const std::string& path, ChainModel& model);

// Restores replica `replica`'s buffers (its b<stage>.* entries) from a
// world's model.state.
bool LoadModelBuffers(const Checkpoint& ckpt, int replica, ChainModel& model);

// FNV-1a over the state dict's raw bytes in enumeration order — the same
// fingerprint idiom as the distributed params_hash, extended to buffers.
uint64_t HashModelState(ChainModel& model);

}  // namespace egeria

#endif  // EGERIA_SRC_CKPT_STATE_DICT_H_
