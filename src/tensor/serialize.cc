#include "src/tensor/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "src/util/logging.h"

namespace egeria {

namespace {

constexpr uint32_t kTensorMagicV2 = 0x32544745;      // 'EGT2'
constexpr uint32_t kCheckpointMagicV2 = 0x32434745;  // 'EGC2'
constexpr uint32_t kFormatVersion = 2;

// Hard sanity caps for on-disk metadata. A header violating them is corrupt
// (or adversarial), not merely large: the biggest tensors in this repo are a
// few hundred MB, so 1 TiB of payload or a 2^32 extent is never legitimate.
constexpr uint32_t kMaxNdim = 8;
constexpr int64_t kMaxDimExtent = int64_t{1} << 32;
constexpr int64_t kMaxNumel = int64_t{1} << 38;  // 1 TiB of f32
constexpr uint32_t kMaxNameLen = 1U << 20;

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return static_cast<bool>(is);
}

std::string Where(const std::string& context) {
  return context.empty() ? std::string("tensor stream") : context;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t len, uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

void WriteTensor(std::ostream& os, const Tensor& t) {
  WritePod(os, kTensorMagicV2);
  WritePod(os, kFormatVersion);
  const uint32_t ndim = static_cast<uint32_t>(t.Dim());
  WritePod(os, ndim);
  for (int d = 0; d < t.Dim(); ++d) {
    WritePod(os, t.Size(d));
  }
  const size_t bytes = static_cast<size_t>(t.NumEl()) * sizeof(float);
  const uint64_t checksum = t.NumEl() > 0 ? Fnv1a64(t.Data(), bytes) : kFnv64Offset;
  WritePod(os, checksum);
  if (t.NumEl() > 0) {
    os.write(reinterpret_cast<const char*>(t.Data()),
             static_cast<std::streamsize>(bytes));
  }
}

Tensor ReadTensor(std::istream& is, const std::string& context) {
  uint32_t magic = 0;
  if (!ReadPod(is, magic)) {
    EGERIA_LOG(kError) << Where(context) << ": truncated before tensor magic";
    return Tensor();
  }
  if (magic != kTensorMagicV2) {
    EGERIA_LOG(kError) << Where(context) << ": bad tensor magic 0x" << std::hex << magic;
    return Tensor();
  }
  uint32_t version = 0;
  if (!ReadPod(is, version) || version < 2 || version > kFormatVersion) {
    EGERIA_LOG(kError) << Where(context) << ": unsupported tensor format version "
                       << version;
    return Tensor();
  }
  uint32_t ndim = 0;
  if (!ReadPod(is, ndim) || ndim > kMaxNdim) {
    EGERIA_LOG(kError) << Where(context) << ": absurd ndim " << ndim;
    return Tensor();
  }
  std::vector<int64_t> shape(ndim);
  int64_t numel = 1;
  for (auto& d : shape) {
    if (!ReadPod(is, d) || d < 0 || d > kMaxDimExtent) {
      EGERIA_LOG(kError) << Where(context) << ": absurd/truncated dim " << d;
      return Tensor();
    }
    numel *= (d == 0 ? 1 : d);
    if (numel > kMaxNumel) {
      EGERIA_LOG(kError) << Where(context) << ": tensor payload exceeds sanity cap";
      return Tensor();
    }
  }
  uint64_t stored_checksum = 0;
  if (!ReadPod(is, stored_checksum)) {
    EGERIA_LOG(kError) << Where(context) << ": truncated before tensor checksum";
    return Tensor();
  }
  Tensor t(shape);
  if (t.NumEl() > 0) {
    const size_t bytes = static_cast<size_t>(t.NumEl()) * sizeof(float);
    is.read(reinterpret_cast<char*>(t.Data()), static_cast<std::streamsize>(bytes));
    if (!is) {
      EGERIA_LOG(kError) << Where(context) << ": truncated tensor data (expected "
                         << bytes << " bytes)";
      return Tensor();
    }
    const uint64_t actual = Fnv1a64(t.Data(), bytes);
    if (actual != stored_checksum) {
      EGERIA_LOG(kError) << Where(context) << ": tensor checksum mismatch (stored 0x"
                         << std::hex << stored_checksum << ", computed 0x" << actual
                         << ")";
      return Tensor();
    }
  } else if (stored_checksum != kFnv64Offset) {
    EGERIA_LOG(kError) << Where(context) << ": empty tensor with nonzero checksum";
    return Tensor();
  }
  return t;
}

bool SaveTensorFile(const std::string& path, const Tensor& t) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return false;
  }
  WriteTensor(os, t);
  return static_cast<bool>(os);
}

Tensor LoadTensorFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Tensor();
  }
  return ReadTensor(is, path);
}

bool SaveCheckpoint(const std::string& path, const Checkpoint& ckpt) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return false;
  }
  WritePod(os, kCheckpointMagicV2);
  WritePod(os, kFormatVersion);
  WritePod(os, static_cast<uint64_t>(ckpt.size()));
  for (const auto& [name, tensor] : ckpt) {
    WritePod(os, static_cast<uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    WriteTensor(os, tensor);
  }
  return static_cast<bool>(os);
}

bool LoadCheckpoint(const std::string& path, Checkpoint& ckpt) {
  ckpt.clear();
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    EGERIA_LOG(kError) << path << ": cannot open checkpoint";
    return false;
  }
  uint32_t magic = 0;
  if (!ReadPod(is, magic) || magic != kCheckpointMagicV2) {
    EGERIA_LOG(kError) << path << ": bad checkpoint magic";
    return false;
  }
  uint32_t version = 0;
  if (!ReadPod(is, version) || version < 2 || version > kFormatVersion) {
    EGERIA_LOG(kError) << path << ": unsupported checkpoint format version " << version;
    return false;
  }
  uint64_t count = 0;
  if (!ReadPod(is, count)) {
    EGERIA_LOG(kError) << path << ": truncated checkpoint header";
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!ReadPod(is, len) || len > kMaxNameLen) {
      EGERIA_LOG(kError) << path << ": absurd/truncated entry name length";
      ckpt.clear();
      return false;
    }
    std::string name(len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(len));
    if (!is) {
      EGERIA_LOG(kError) << path << ": truncated entry name";
      ckpt.clear();
      return false;
    }
    Tensor t = ReadTensor(is, path + ":" + name);
    if (!t.Defined()) {
      ckpt.clear();
      return false;
    }
    ckpt.emplace(std::move(name), std::move(t));
  }
  return true;
}

}  // namespace egeria
