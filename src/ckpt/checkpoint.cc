#include "src/ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/tensor/serialize.h"
#include "src/util/logging.h"

namespace egeria {

namespace fs = std::filesystem;

namespace {

constexpr const char kManifestName[] = "MANIFEST";
constexpr const char kStepPrefix[] = "step_";

// Parses the iteration out of a "step_<iter>" directory name; -1 if not one.
int64_t StepIterOf(const std::string& dir_name) {
  const size_t prefix_len = sizeof(kStepPrefix) - 1;
  if (dir_name.rfind(kStepPrefix, 0) != 0 || dir_name.size() <= prefix_len) {
    return -1;
  }
  int64_t iter = 0;
  for (size_t i = prefix_len; i < dir_name.size(); ++i) {
    if (dir_name[i] < '0' || dir_name[i] > '9') {
      return -1;
    }
    iter = iter * 10 + (dir_name[i] - '0');
  }
  return iter;
}

// All step_* entries under root, as (iter, path), unsorted.
std::vector<std::pair<int64_t, std::string>> ListSteps(const std::string& root) {
  std::vector<std::pair<int64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory(ec)) {
      continue;
    }
    const int64_t iter = StepIterOf(entry.path().filename().string());
    if (iter >= 0) {
      out.emplace_back(iter, entry.path().string());
    }
  }
  return out;
}

}  // namespace

bool CkptManifest::HasFile(const std::string& name) const {
  for (const ManifestFile& f : files) {
    if (f.name == name) {
      return true;
    }
  }
  return false;
}

std::string CheckpointStepDir(const std::string& root, int64_t iter) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%09lld", kStepPrefix,
                static_cast<long long>(iter));
  return root + "/" + buf;
}

bool EnsureDir(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    EGERIA_LOG(kError) << "cannot create directory " << path << ": " << ec.message();
    return false;
  }
  return true;
}

std::optional<ManifestFile> HashFile(const std::string& dir, const std::string& name) {
  std::ifstream is(dir + "/" + name, std::ios::binary);
  if (!is) {
    return std::nullopt;
  }
  ManifestFile f;
  f.name = name;
  f.fnv = kFnv64Offset;
  char buf[1 << 16];
  while (is) {
    is.read(buf, sizeof(buf));
    const std::streamsize got = is.gcount();
    if (got > 0) {
      f.fnv = Fnv1a64(buf, static_cast<size_t>(got), f.fnv);
      f.bytes += got;
    }
  }
  return f;
}

bool AddManifestFile(CkptManifest& m, const std::string& name) {
  const auto f = HashFile(m.dir, name);
  if (!f) {
    EGERIA_LOG(kError) << "checkpoint " << m.dir << ": cannot hash " << name;
    return false;
  }
  m.files.push_back(*f);
  return true;
}

bool CommitManifest(const CkptManifest& m) {
  const std::string tmp = m.dir + "/" + kManifestName + ".tmp";
  const std::string final_path = m.dir + "/" + kManifestName;
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      EGERIA_LOG(kError) << "cannot write " << tmp;
      return false;
    }
    os << "EGERIA-CKPT " << m.version << "\n";
    os << "iter " << m.iter << "\n";
    os << "world " << m.world << "\n";
    os << "frontier " << m.frontier << "\n";
    char hex[32];
    for (const ManifestFile& f : m.files) {
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(f.fnv));
      os << "file " << f.name << " " << f.bytes << " " << hex << "\n";
    }
    os.flush();
    if (!os) {
      EGERIA_LOG(kError) << "failed writing " << tmp;
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);  // The atomic commit point.
  if (ec) {
    EGERIA_LOG(kError) << "cannot commit manifest " << final_path << ": " << ec.message();
    return false;
  }
  return true;
}

std::optional<CkptManifest> ReadManifest(const std::string& step_dir) {
  std::ifstream is(step_dir + "/" + kManifestName);
  if (!is) {
    return std::nullopt;  // Incomplete checkpoint; not an error.
  }
  CkptManifest m;
  m.dir = step_dir;
  std::string line;
  bool header_seen = false;
  while (std::getline(is, line)) {
    std::istringstream tokens(line);
    std::string key;
    if (!(tokens >> key)) {
      continue;
    }
    if (key == "EGERIA-CKPT") {
      tokens >> m.version;
      header_seen = true;
    } else if (key == "iter") {
      tokens >> m.iter;
    } else if (key == "world") {
      tokens >> m.world;
    } else if (key == "frontier") {
      tokens >> m.frontier;
    } else if (key == "file") {
      ManifestFile f;
      std::string hex;
      if (!(tokens >> f.name >> f.bytes >> hex)) {
        EGERIA_LOG(kError) << step_dir << ": malformed manifest file line: " << line;
        return std::nullopt;
      }
      f.fnv = std::strtoull(hex.c_str(), nullptr, 16);
      m.files.push_back(std::move(f));
    }
    // Unknown keys are skipped: future versions may append fields.
  }
  if (!header_seen || m.world < 1 || m.iter < 0) {
    EGERIA_LOG(kError) << step_dir << ": malformed manifest header";
    return std::nullopt;
  }
  if (m.version != CkptManifest{}.version) {
    EGERIA_LOG(kWarn) << step_dir << ": manifest version " << m.version
                      << " is not this layout's; ignored";
    return std::nullopt;
  }
  return m;
}

bool VerifyCheckpointFiles(const CkptManifest& m, std::string* error) {
  for (const ManifestFile& f : m.files) {
    const auto actual = HashFile(m.dir, f.name);
    if (!actual) {
      if (error != nullptr) {
        *error = m.dir + "/" + f.name + ": missing or unreadable";
      }
      return false;
    }
    if (actual->bytes != f.bytes || actual->fnv != f.fnv) {
      if (error != nullptr) {
        *error = m.dir + "/" + f.name + ": size/checksum mismatch (manifest " +
                 std::to_string(f.bytes) + "B, on disk " +
                 std::to_string(actual->bytes) + "B)";
      }
      return false;
    }
  }
  return true;
}

std::optional<CkptManifest> FindLatestCheckpoint(const std::string& root) {
  auto steps = ListSteps(root);
  std::sort(steps.begin(), steps.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [iter, path] : steps) {
    auto m = ReadManifest(path);
    if (!m) {
      continue;
    }
    std::string error;
    if (!VerifyCheckpointFiles(*m, &error)) {
      EGERIA_LOG(kWarn) << "checkpoint " << path << " fails verification (" << error
                        << "); trying an older one";
      continue;
    }
    return m;
  }
  return std::nullopt;
}

void ApplyRetention(const std::string& root, int keep_last) {
  if (keep_last < 1) {
    keep_last = 1;
  }
  auto steps = ListSteps(root);
  std::sort(steps.begin(), steps.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  int complete_kept = 0;
  int64_t newest_complete = -1;
  std::error_code ec;
  for (const auto& [iter, path] : steps) {
    const bool complete = fs::exists(path + "/" + kManifestName, ec);
    if (complete) {
      if (newest_complete < 0) {
        newest_complete = iter;
      }
      if (++complete_kept <= keep_last) {
        continue;
      }
      fs::remove_all(path, ec);
    } else if (newest_complete >= 0 && iter < newest_complete) {
      // Incomplete debris older than a complete checkpoint: a crashed write.
      // Incomplete dirs NEWER than the latest complete step may be a write in
      // progress by concurrent ranks — leave those alone.
      fs::remove_all(path, ec);
    }
  }
}

}  // namespace egeria
