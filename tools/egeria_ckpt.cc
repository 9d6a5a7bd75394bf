// egeria_ckpt: checkpoint inspector for the src/ckpt/ fault-tolerance
// subsystem.
//
//   egeria_ckpt list <root>       all step_* checkpoints under <root> with
//                                 iter/world/frontier and completeness
//   egeria_ckpt latest <root>     print the latest COMPLETE step dir
//                                 (exit 1 if none — scriptable)
//   egeria_ckpt show <step_dir>   manifest header, per-file checksums, and
//                                 every tensor in model.state (name, shape)
//   egeria_ckpt verify <step_dir> re-hash every listed file against the
//                                 manifest (exit 1 on any mismatch)
//
// "Complete" means: MANIFEST present, parseable, and every listed file's size
// and FNV-1a checksum match — the same test resume uses.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/tensor/serialize.h"

namespace egeria {
namespace {

namespace fs = std::filesystem;

int Usage() {
  std::fprintf(stderr,
               "usage: egeria_ckpt list <root> | latest <root> | show <step_dir> | "
               "verify <step_dir>\n");
  return 2;
}

std::string StatusOf(const std::string& step_dir) {
  const auto m = ReadManifest(step_dir);
  if (!m) {
    return "INCOMPLETE (no manifest)";
  }
  std::string error;
  if (!VerifyCheckpointFiles(*m, &error)) {
    return "CORRUPT (" + error + ")";
  }
  return "complete";
}

int List(const std::string& root) {
  std::vector<std::string> steps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory(ec) &&
        entry.path().filename().string().rfind("step_", 0) == 0) {
      steps.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "egeria_ckpt: cannot read %s: %s\n", root.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(steps.begin(), steps.end());
  std::printf("%-32s %10s %5s %8s %6s  %s\n", "step", "iter", "world", "frontier",
              "files", "status");
  for (const std::string& dir : steps) {
    const auto m = ReadManifest(dir);
    const std::string name = fs::path(dir).filename().string();
    if (!m) {
      std::printf("%-32s %10s %5s %8s %6s  %s\n", name.c_str(), "-", "-", "-", "-",
                  "INCOMPLETE (no manifest)");
      continue;
    }
    std::printf("%-32s %10lld %5d %8d %6zu  %s\n", name.c_str(),
                static_cast<long long>(m->iter), m->world, m->frontier,
                m->files.size(), StatusOf(dir).c_str());
  }
  return 0;
}

int Latest(const std::string& root) {
  const auto m = FindLatestCheckpoint(root);
  if (!m) {
    std::fprintf(stderr, "egeria_ckpt: no complete checkpoint under %s\n",
                 root.c_str());
    return 1;
  }
  std::printf("%s\n", m->dir.c_str());
  return 0;
}

int Show(const std::string& step_dir) {
  const auto m = ReadManifest(step_dir);
  if (!m) {
    std::fprintf(stderr, "egeria_ckpt: %s has no parseable manifest\n",
                 step_dir.c_str());
    return 1;
  }
  std::printf("checkpoint   %s\n", step_dir.c_str());
  std::printf("iter         %lld\n", static_cast<long long>(m->iter));
  std::printf("world        %d\n", m->world);
  std::printf("frontier     %d\n", m->frontier);
  std::printf("status       %s\n", StatusOf(step_dir).c_str());
  std::printf("files:\n");
  for (const ManifestFile& f : m->files) {
    std::printf("  %-24s %12lld B  fnv=%016llx\n", f.name.c_str(),
                static_cast<long long>(f.bytes),
                static_cast<unsigned long long>(f.fnv));
  }
  Checkpoint state;
  if (m->HasFile("model.state") &&
      LoadCheckpoint(step_dir + "/model.state", state)) {
    int64_t total = 0;
    std::printf("model.state tensors:\n");
    for (const auto& [name, t] : state) {
      std::string shape = "[";
      for (int d = 0; d < t.Dim(); ++d) {
        shape += (d > 0 ? "," : "") + std::to_string(t.Size(d));
      }
      shape += "]";
      std::printf("  %-48s %-16s %10lld\n", name.c_str(), shape.c_str(),
                  static_cast<long long>(t.NumEl()));
      total += t.NumEl();
    }
    std::printf("  total elements: %lld\n", static_cast<long long>(total));
  }
  return 0;
}

int Verify(const std::string& step_dir) {
  const auto m = ReadManifest(step_dir);
  if (!m) {
    std::fprintf(stderr, "egeria_ckpt: %s has no parseable manifest\n",
                 step_dir.c_str());
    return 1;
  }
  std::string error;
  if (!VerifyCheckpointFiles(*m, &error)) {
    std::fprintf(stderr, "egeria_ckpt: VERIFY FAILED: %s\n", error.c_str());
    return 1;
  }
  std::printf("egeria_ckpt: %s verifies (%zu files)\n", step_dir.c_str(),
              m->files.size());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc != 3) {
    return Usage();
  }
  const std::string cmd = argv[1];
  const std::string arg = argv[2];
  if (cmd == "list") {
    return List(arg);
  }
  if (cmd == "latest") {
    return Latest(arg);
  }
  if (cmd == "show") {
    return Show(arg);
  }
  if (cmd == "verify") {
    return Verify(arg);
  }
  return Usage();
}

}  // namespace
}  // namespace egeria

int main(int argc, char** argv) { return egeria::Main(argc, argv); }
