// Binary tensor (de)serialization.
//
// Used by (a) model checkpoints (the "pre-trained" model for the fine-tuning
// experiments and reference snapshots in tests), (b) the fault-tolerance
// checkpoint subsystem (src/ckpt/), which layers named training-state
// snapshots on top of these primitives, and (c) the reference-model snapshot
// inside the controller's saved state.
//
// Format v2 (little-endian, current writer):
//   u32 magic 'EGT2' | u32 version | u32 ndim | i64 dims[ndim]
//   | u64 fnv64(data) | f32 data[numel]
// Checkpoint (named tensor map) v2:
//   u32 magic 'EGC2' | u32 version | u64 count | count * { u32 name_len | bytes | tensor }
//
// All read paths are hardened: bad magic (the checksum-less v1 layouts 'EGTN'
// and 'EGCK' included), absurd ndim/dims, truncation, and checksum mismatches
// produce a logged diagnostic and an undefined tensor / false return — never
// garbage data.
#ifndef EGERIA_SRC_TENSOR_SERIALIZE_H_
#define EGERIA_SRC_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "src/tensor/tensor.h"

namespace egeria {

// FNV-1a 64-bit, the repo's content-hash idiom (also used for the distributed
// params_hash pins and the checkpoint manifest's per-file checksums).
inline constexpr uint64_t kFnv64Offset = 0xCBF29CE484222325ULL;
uint64_t Fnv1a64(const void* data, size_t len, uint64_t h = kFnv64Offset);

void WriteTensor(std::ostream& os, const Tensor& t);
// Returns an undefined tensor (and logs a diagnostic naming `context`) on any
// malformed input: bad magic, ndim/dims out of range, truncation, checksum
// mismatch.
Tensor ReadTensor(std::istream& is, const std::string& context = "");

using Checkpoint = std::map<std::string, Tensor>;

bool SaveCheckpoint(const std::string& path, const Checkpoint& ckpt);
// Returns false (and leaves ckpt empty) on failure.
bool LoadCheckpoint(const std::string& path, Checkpoint& ckpt);

}  // namespace egeria

#endif  // EGERIA_SRC_TENSOR_SERIALIZE_H_
