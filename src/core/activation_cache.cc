#include "src/core/activation_cache.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/serialize.h"
#include "src/util/logging.h"

namespace egeria {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestName = "store.manifest";

}  // namespace

ActivationCache::ActivationCache(std::string dir, int64_t memory_entries,
                                 int64_t max_disk_bytes, bool persistent)
    : dir_(std::move(dir)),
      memory_entries_(memory_entries),
      max_disk_bytes_(max_disk_bytes),
      persistent_(persistent) {
  EGERIA_CHECK(memory_entries_ >= 1);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  EGERIA_CHECK_MSG(!ec, "cannot create cache dir " + dir_);
  prefetcher_ = std::make_unique<ThreadPool>(1);
}

ActivationCache::~ActivationCache() {
  prefetcher_.reset();  // Join before touching files.
  if (!persistent_) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
}

std::string ActivationCache::PathForLocked(int64_t id) const {
  return dir_ + "/v" + std::to_string(kSpillFormatVersion) + "_s" +
         std::to_string(stage_) + "_" + std::to_string(id) + ".egt";
}

int ActivationCache::stage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stage_;
}

uint64_t ActivationCache::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

bool ActivationCache::ManifestMatches() const {
  std::ifstream is(dir_ + "/" + kManifestName);
  if (!is) {
    return false;
  }
  std::string tag;
  uint32_t version = 0;
  int stage = -2;
  uint64_t generation = 0;
  is >> tag >> version >> stage >> generation;
  return static_cast<bool>(is) && tag == "egeria-feature-store" &&
         version == kSpillFormatVersion && stage == stage_ && generation == generation_;
}

void ActivationCache::WriteManifest() const {
  // tmp + rename so a crash mid-write never leaves a manifest that validates a
  // half-swept directory.
  const std::string tmp = dir_ + "/" + kManifestName + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    os << "egeria-feature-store " << kSpillFormatVersion << " " << stage_ << " "
       << generation_ << "\n";
    if (!os) {
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, dir_ + "/" + kManifestName, ec);
}

void ActivationCache::SweepDirectory() {
  // Sweep EVERY file, not just tracked ids: after a crash-restart the directory
  // can hold spills from a previous incarnation (possibly a different key) that
  // this instance never recorded. Concurrent prefetch loads of removed files
  // degrade to misses via the hardened reader.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec)) {
      fs::remove(entry.path(), ec);
    }
  }
}

void ActivationCache::AdoptDirectory() {
  const std::string prefix =
      "v" + std::to_string(kSpillFormatVersion) + "_s" + std::to_string(stage_) + "_";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name == kManifestName) {
      continue;
    }
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + 4 ||
        name.compare(name.size() - 4, 4, ".egt") != 0) {
      fs::remove(entry.path(), ec);  // Different key or foreign file: stale.
      continue;
    }
    const std::string id_str = name.substr(prefix.size(), name.size() - prefix.size() - 4);
    char* end = nullptr;
    const int64_t id = std::strtoll(id_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      fs::remove(entry.path(), ec);
      continue;
    }
    const int64_t bytes = static_cast<int64_t>(entry.file_size(ec));
    if (ec || on_disk_.count(id) != 0) {
      continue;
    }
    // A corrupt adopted file is only discovered at load time, where the
    // checksummed reader turns it into a miss; adopting it here costs nothing.
    on_disk_.emplace(id, bytes);
    disk_order_.push_back(id);
    disk_bytes_ += bytes;
    ++stats_.adopted;
  }
}

void ActivationCache::SetKey(int stage, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (configured_ && stage == stage_ && generation == generation_) {
    return;  // Per-iteration fast path.
  }
  configured_ = true;
  stage_ = stage;
  generation_ = generation;
  key_epoch_.fetch_add(1, std::memory_order_release);
  memory_.clear();
  insertion_order_.clear();
  on_disk_.clear();
  disk_order_.clear();
  disk_bytes_ = 0;
  stats_.bytes_written = 0;
  if (ManifestMatches()) {
    AdoptDirectory();
  } else {
    SweepDirectory();
    WriteManifest();
  }
}

void ActivationCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  key_epoch_.fetch_add(1, std::memory_order_release);
  memory_.clear();
  insertion_order_.clear();
  on_disk_.clear();
  disk_order_.clear();
  disk_bytes_ = 0;
  stats_.bytes_written = 0;
  SweepDirectory();
  if (configured_) {
    WriteManifest();
  }
}

bool ActivationCache::HasAll(const std::vector<int64_t>& ids) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (int64_t id : ids) {
    if (memory_.count(id) == 0 && on_disk_.count(id) == 0) {
      return false;
    }
  }
  return true;
}

void ActivationCache::InsertMemoryLocked(int64_t id, Tensor slice) {
  if (memory_.count(id) != 0) {
    return;
  }
  memory_.emplace(id, std::move(slice));
  insertion_order_.push_back(id);
  while (static_cast<int64_t>(memory_.size()) > memory_entries_) {
    memory_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
}

bool ActivationCache::EvictForLocked(int64_t incoming_bytes) {
  if (incoming_bytes > max_disk_bytes_) {
    return false;  // A single slice can never fit.
  }
  std::error_code ec;
  while (disk_bytes_ + incoming_bytes > max_disk_bytes_ && !disk_order_.empty()) {
    const int64_t victim = disk_order_.front();
    disk_order_.pop_front();
    auto it = on_disk_.find(victim);
    if (it == on_disk_.end()) {
      continue;
    }
    disk_bytes_ -= it->second;
    on_disk_.erase(it);
    // Evicted = forgotten entirely: the memory copy must go too, or HasAll
    // would keep promising a sample whose backing store is gone.
    if (memory_.erase(victim) != 0) {
      for (auto oit = insertion_order_.begin(); oit != insertion_order_.end(); ++oit) {
        if (*oit == victim) {
          insertion_order_.erase(oit);
          break;
        }
      }
    }
    fs::remove(PathForLocked(victim), ec);
    ++stats_.evictions;
  }
  return disk_bytes_ + incoming_bytes <= max_disk_bytes_;
}

Tensor ActivationCache::FetchBatch(const std::vector<int64_t>& ids) {
  std::vector<Tensor> slices(ids.size());
  std::vector<std::string> disk_paths(ids.size());
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = key_epoch_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < ids.size(); ++i) {
      auto it = memory_.find(ids[i]);
      if (it != memory_.end()) {
        slices[i] = it->second;
        ++stats_.memory_hits;
      } else if (on_disk_.count(ids[i]) == 0) {
        ++stats_.misses;
        obs::GetCounter("cache.fetch_misses").Add(1);
        return Tensor();
      } else {
        disk_paths[i] = PathForLocked(ids[i]);
      }
    }
  }
  // Disk fallback outside the lock.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!slices[i].Defined()) {
      slices[i] = LoadTensorFile(disk_paths[i]);
      std::lock_guard<std::mutex> lock(mutex_);
      if (!slices[i].Defined() ||
          key_epoch_.load(std::memory_order_relaxed) != epoch) {
        ++stats_.misses;  // Corrupt spill or key changed mid-fetch: a miss.
        obs::GetCounter("cache.fetch_misses").Add(1);
        return Tensor();
      }
      ++stats_.disk_hits;
      stats_.bytes_read += slices[i].NumEl() * static_cast<int64_t>(sizeof(float));
      InsertMemoryLocked(ids[i], slices[i]);
    }
  }
  obs::GetCounter("cache.fetch_hits").Add(1);
  // Assemble [b, ...] from slices shaped [1, ...].
  std::vector<int64_t> shape = slices[0].Shape();
  shape[0] = static_cast<int64_t>(ids.size());
  Tensor out(shape);
  const int64_t per = slices[0].NumEl();
  for (size_t i = 0; i < slices.size(); ++i) {
    EGERIA_CHECK(slices[i].NumEl() == per);
    std::copy(slices[i].Data(), slices[i].Data() + per,
              out.Data() + static_cast<int64_t>(i) * per);
  }
  return out;
}

void ActivationCache::StoreBatch(const std::vector<int64_t>& ids, const Tensor& activations) {
  EGERIA_CHECK(activations.Dim() >= 2);
  EGERIA_CHECK(activations.Size(0) == static_cast<int64_t>(ids.size()));
  std::vector<int64_t> slice_shape = activations.Shape();
  slice_shape[0] = 1;
  const int64_t per = activations.NumEl() / activations.Size(0);
  const int64_t slice_bytes = per * static_cast<int64_t>(sizeof(float));
  for (size_t i = 0; i < ids.size(); ++i) {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (on_disk_.count(ids[i]) != 0) {
        continue;  // Already persisted under this key.
      }
      if (!EvictForLocked(slice_bytes)) {
        return;  // One slice exceeds the whole budget; nothing can be stored.
      }
      path = PathForLocked(ids[i]);
    }
    Tensor slice(slice_shape);
    std::copy(activations.Data() + static_cast<int64_t>(i) * per,
              activations.Data() + static_cast<int64_t>(i + 1) * per, slice.Data());
    const bool ok = SaveTensorFile(path, slice);
    std::lock_guard<std::mutex> lock(mutex_);
    if (ok && on_disk_.count(ids[i]) == 0) {
      on_disk_.emplace(ids[i], slice_bytes);
      disk_order_.push_back(ids[i]);
      disk_bytes_ += slice_bytes;
      stats_.bytes_written += slice_bytes;
      ++stats_.stores;
      InsertMemoryLocked(ids[i], std::move(slice));
    }
  }
}

void ActivationCache::PrefetchAsync(const std::vector<int64_t>& ids) {
  std::vector<std::pair<int64_t, std::string>> to_load;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = key_epoch_.load(std::memory_order_relaxed);
    for (int64_t id : ids) {
      if (memory_.count(id) == 0 && on_disk_.count(id) != 0) {
        to_load.emplace_back(id, PathForLocked(id));
      }
    }
  }
  if (to_load.empty()) {
    return;
  }
  prefetcher_->Submit([this, to_load = std::move(to_load), epoch] {
    // The store's dataloader-lookahead: loads upcoming spills on the
    // single-thread pool racing SetKey/Clear/FetchBatch.
    trace::SetThreadName("cache_prefetch");
    trace::Span span("cache", "prefetch");
    if (span.active()) {
      span.SetArgs("{\"spills\":%zu}", to_load.size());
    }
    obs::GetCounter("cache.prefetch_jobs").Add(1);
    for (const auto& [id, path] : to_load) {
      if (key_epoch_.load(std::memory_order_acquire) != epoch) {
        return;  // Key moved; these paths are stale.
      }
      Tensor slice = LoadTensorFile(path);
      if (!slice.Defined()) {
        continue;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (key_epoch_.load(std::memory_order_relaxed) != epoch) {
        return;
      }
      ++stats_.prefetch_loads;
      InsertMemoryLocked(id, std::move(slice));
    }
  });
}

CacheStats ActivationCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace egeria
