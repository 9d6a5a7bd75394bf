// Versioned training-state checkpoints with an atomic manifest commit.
//
// On-disk layout (one root directory per run; the same four files at every
// world size and for every gradient sync, all written by rank 0):
//   <root>/step_000000056/          one complete snapshot at iteration 56
//     model.state                   weights, every replica's BatchNorm
//                                   statistics and the optimizer state
//     trainer.state                 bootstrap / knowledge-stage state
//     controller.state              freezing policy + reference snapshot (Egeria)
//     MANIFEST                      commit record: header kv + per-file checksums
//
// Commit protocol: every data file is written first, and only once every
// rank has reached the commit point is MANIFEST written to MANIFEST.tmp and
// atomically renamed into place by rank 0. A step directory WITHOUT a
// MANIFEST is by definition incomplete — a crash at any point leaves either a
// complete older checkpoint or an incomplete directory that discovery ignores
// and retention sweeps. Readers additionally verify
// every listed file's size and FNV-1a checksum before trusting a checkpoint,
// so a torn or bit-flipped file demotes the whole step to "incomplete" rather
// than feeding garbage into a resume.
//
// Retention: keep the newest `keep_last` complete checkpoints; older complete
// steps and incomplete debris older than the newest complete step are
// deleted. Incomplete directories NEWER than the latest complete checkpoint
// are left alone (they may be a write in progress).
#ifndef EGERIA_SRC_CKPT_CHECKPOINT_H_
#define EGERIA_SRC_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace egeria {

// Checkpoint knobs of TrainConfig (and so of DistTrainConfig). A run with
// `dir` set always resumes from the latest complete checkpoint in it
// (auto-restart: rerunning the same command continues the run).
struct CheckpointOptions {
  std::string dir;             // empty = checkpointing disabled
  int64_t interval_iters = 0;  // snapshot every N iterations (0 = never)
  int keep_last = 2;           // complete checkpoints retained

  // Capture the snapshot in memory at the checkpoint boundary, serialize it
  // on a background thread (ckpt/async_writer.h), and defer the collective
  // manifest commit to the next iteration boundary — the write overlaps one
  // iteration of compute. The snapshot is cloned at capture time, so the
  // persisted state is bitwise the synchronous path's. false = write and
  // commit inline.
  bool async_save = true;

  bool enabled() const { return !dir.empty() && interval_iters > 0; }
};

struct ManifestFile {
  std::string name;   // file name within the step directory
  int64_t bytes = 0;
  uint64_t fnv = 0;   // FNV-1a 64 over the file contents
};

struct CkptManifest {
  // 3: the layout above, written by rank 0 alone. Steps of older versions
  // (2 kept every rank's buffers and momentum shard in files of its own) are
  // not read.
  int version = 3;
  int64_t iter = 0;        // iterations completed when the snapshot was taken
  int world = 1;           // world size that wrote it
  int frontier = 0;
  std::vector<ManifestFile> files;
  std::string dir;         // step directory (filled by readers/writers)

  bool HasFile(const std::string& name) const;
};

// <root>/step_<iter, zero-padded>; creates nothing.
std::string CheckpointStepDir(const std::string& root, int64_t iter);

// mkdir -p. Returns false on failure (logged).
bool EnsureDir(const std::string& path);

// FNV-1a 64 of a file's contents; nullopt if unreadable.
std::optional<ManifestFile> HashFile(const std::string& dir, const std::string& name);

// Hashes `name` inside m.dir and appends it to m.files. False if unreadable.
bool AddManifestFile(CkptManifest& m, const std::string& name);

// Writes m.dir/MANIFEST.tmp and renames it to MANIFEST (the commit point).
bool CommitManifest(const CkptManifest& m);

// Parses <step_dir>/MANIFEST. nullopt (logged) if absent or malformed.
std::optional<CkptManifest> ReadManifest(const std::string& step_dir);

// Re-hashes every listed file; false + error description on any mismatch.
bool VerifyCheckpointFiles(const CkptManifest& m, std::string* error);

// Newest step with a parseable manifest whose files all verify.
std::optional<CkptManifest> FindLatestCheckpoint(const std::string& root);

// Enforces keep-last-N (see file header for the exact rule).
void ApplyRetention(const std::string& root, int keep_last);

}  // namespace egeria

#endif  // EGERIA_SRC_CKPT_CHECKPOINT_H_
