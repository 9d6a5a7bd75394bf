// Checkpoint overhead probe: what does fault tolerance cost per snapshot?
//
// Measures, for the shared dist workloads (tiny + fig10 geometry):
//   - in-memory capture (ExportModelState clone) — the ONLY cost the async
//     save path (ckpt/async_writer.h) leaves on the training hot path; the
//     serialize-to-disk below runs on the background writer
//   - state-dict export + save (model weights + BN stats, v2 checksummed)
//   - manifest hash + commit
//   - full verified restore (LoadCheckpoint + LoadModelState)
//   - egeria_ckpt-style verification (re-hash every file)
// and prints bytes + wall milliseconds + effective MB/s, so the checkpoint
// interval can be chosen against measured iteration times (a snapshot that
// costs ~one iteration is safe to take every few hundred; with async saves
// only the capture row counts against the iteration).
//
// Usage: ckpt_overhead [--rounds=N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/state_dict.h"
#include "src/distributed/dist_workload.h"
#include "src/tensor/serialize.h"
#include "src/util/timer.h"

namespace egeria {
namespace {

namespace fs = std::filesystem;

double MedianOf(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

void BenchWorkload(const std::string& name, int rounds) {
  DistWorkload w = MakeDistWorkload(name);
  std::unique_ptr<ChainModel> model = w.make_model();
  int64_t state_bytes = 0;
  for (const auto& [entry_name, tensor] : CollectModelState(*model)) {
    (void)entry_name;
    state_bytes += tensor->NumEl() * static_cast<int64_t>(sizeof(float));
  }

  const std::string root =
      (fs::temp_directory_path() / ("egeria-ckpt-bench-" + name)).string();
  fs::remove_all(root);

  std::vector<double> capture_ms;
  std::vector<double> save_ms;
  std::vector<double> commit_ms;
  std::vector<double> load_ms;
  std::vector<double> verify_ms;
  int64_t file_bytes = 0;
  for (int r = 0; r < rounds; ++r) {
    CkptManifest m;
    m.iter = r;
    m.dir = CheckpointStepDir(root, r);
    EnsureDir(m.dir);

    WallTimer t;
    Checkpoint captured = ExportModelState(*model);
    capture_ms.push_back(t.ElapsedSeconds() * 1e3);
    captured.clear();

    t.Reset();
    SaveModelState(m.dir + "/model.state", *model);
    save_ms.push_back(t.ElapsedSeconds() * 1e3);

    t.Reset();
    AddManifestFile(m, "model.state");
    CommitManifest(m);
    commit_ms.push_back(t.ElapsedSeconds() * 1e3);
    file_bytes = m.files[0].bytes;

    t.Reset();
    std::unique_ptr<ChainModel> dst = w.make_model();
    LoadModelStateFile(m.dir + "/model.state", *dst);
    load_ms.push_back(t.ElapsedSeconds() * 1e3);

    t.Reset();
    std::string error;
    VerifyCheckpointFiles(m, &error);
    verify_ms.push_back(t.ElapsedSeconds() * 1e3);
  }
  fs::remove_all(root);

  const double capture = MedianOf(capture_ms);
  const double save = MedianOf(save_ms);
  const double commit = MedianOf(commit_ms);
  const double load = MedianOf(load_ms);
  const double verify = MedianOf(verify_ms);
  const double mb = static_cast<double>(file_bytes) / (1024.0 * 1024.0);
  std::printf("%-8s state=%8lld B  file=%8lld B  capture=%6.3f ms  "
              "save=%7.3f ms (%7.1f MB/s)  commit=%6.3f ms  load=%7.3f ms  "
              "verify=%6.3f ms\n",
              name.c_str(), static_cast<long long>(state_bytes),
              static_cast<long long>(file_bytes), capture, save,
              save > 0 ? mb / (save / 1e3) : 0.0, commit, load, verify);
}

int Main(int argc, char** argv) {
  int rounds = 9;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = std::atoi(argv[i] + 9);
    } else {
      std::fprintf(stderr, "usage: ckpt_overhead [--rounds=N]\n");
      return 2;
    }
  }
  std::printf("checkpoint overhead (median of %d rounds)\n", rounds);
  BenchWorkload("tiny", rounds);
  BenchWorkload("fig10", rounds);
  return 0;
}

}  // namespace
}  // namespace egeria

int main(int argc, char** argv) { return egeria::Main(argc, argv); }
