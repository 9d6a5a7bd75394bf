// Multi-process distributed training: ranks as real OS processes over the TCP
// transport, spawned through the fork/exec launcher (SpawnWorld).
//
// The load-bearing assertion is the reduction contract crossing process
// boundaries: a W-process TCP world must produce final weights whose FNV hash
// is bitwise-equal to the single-process sequential-reference run of the same
// workload — including a mid-run freeze + shard repartition. The launcher
// itself is also under test: a wedged rank must surface as a clean timeout
// error (never a hang), and a crashed rank must fail the world fast.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/distributed/dist_trainer.h"
#include "src/distributed/dist_workload.h"
#include "src/distributed/process_launcher.h"

// ThreadSanitizer detection across gcc (__SANITIZE_THREAD__) and clang
// (__has_feature): wall-clock-envelope tests skip under TSan's ~10x slowdown.
#if defined(__SANITIZE_THREAD__)
#define EGERIA_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EGERIA_TSAN_ACTIVE 1
#endif
#endif

namespace egeria {
namespace {

std::string WorkerBinary() {
  if (const char* env = std::getenv("EGERIA_WORKER_BIN")) {
    return env;
  }
#ifdef EGERIA_WORKER_BIN
  return EGERIA_WORKER_BIN;
#else
  return "./egeria_worker";
#endif
}

// Fresh per-test log dir under ./dist_logs (cwd = build when run via ctest);
// kept on failure so CI uploads it, removed on success to keep artifacts
// meaningful.
std::string MakeLogDir(const std::string& label) {
  mkdir("dist_logs", 0755);
  std::string tmpl = "dist_logs/" + label + "-XXXXXX";
  EXPECT_NE(nullptr, mkdtemp(tmpl.data()));
  return tmpl;
}

void RemoveLogDir(const SpawnOptions& options, const SpawnResult& result) {
  for (const std::string& p : result.log_paths) {
    unlink(p.c_str());
  }
  unlink((options.log_dir + "/rendezvous").c_str());
  rmdir(options.log_dir.c_str());
}

uint64_t ParseHash(const std::map<std::string, std::string>& kv) {
  const auto it = kv.find("params_hash");
  if (it == kv.end()) {
    return 0;
  }
  return std::strtoull(it->second.c_str(), nullptr, 16);
}

// In-process sequential-reference run of the named workload: the bitwise
// ground truth the worker processes must reproduce.
DistTrainResult ReferenceRun(const std::string& name, int world, bool egeria) {
  DistWorkload w = MakeDistWorkload(name);
  w.cfg.world = world;
  w.cfg.enable_egeria = egeria;
  w.cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
  return TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);
}

TEST(DistributedProcess, ThreeProcessTcpWorldMatchesSequentialReferenceBitwise) {
  const int world = 3;
  const DistTrainResult ref = ReferenceRun("tiny", world, /*egeria=*/true);
  ASSERT_TRUE(ref.replicas_consistent);
  // The pin must cover a mid-run freeze: the reference run's controller froze
  // at least one stage, so the TCP world has to reproduce the same reshard.
  ASSERT_GT(ref.final_frontier, 0) << "workload no longer freezes; test is hollow";

  SpawnOptions options;
  options.worker_binary = WorkerBinary();
  options.world = world;
  options.common_args = {"--workload=tiny", "--egeria=1"};
  options.log_dir = MakeLogDir("tcp3");
  options.timeout_s = 240.0;
  const SpawnResult run = SpawnWorld(options);
  ASSERT_TRUE(run.ok) << run.error;

  ASSERT_EQ(run.rank_results.size(), static_cast<size_t>(world));
  const uint64_t hash0 = ParseHash(run.rank_results[0]);
  ASSERT_NE(hash0, 0U) << "rank 0 reported no result";
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(ParseHash(run.rank_results[static_cast<size_t>(r)]), hash0)
        << "rank " << r << " replica diverged";
  }
  // The acceptance pin: 3 OS processes over TCP == 1-process reference, bitwise.
  EXPECT_EQ(hash0, ref.params_hash);
  EXPECT_EQ(std::atoi(run.rank_results[0].at("final_frontier").c_str()),
            ref.final_frontier);
  // Freezing re-partitioned the shards at least once past the initial layout.
  EXPECT_GE(run.reshard_timeline.size(), 2U);
  if (!HasFailure()) {
    RemoveLogDir(options, run);
  }
}

TEST(DistributedProcess, TwoProcessWorldMatchesReferenceWithoutFreezing) {
  const int world = 2;
  DistWorkload w = MakeDistWorkload("tiny");
  w.cfg.world = world;
  w.cfg.epochs = 3;
  w.cfg.reducer = DistTrainConfig::Reducer::kSequentialReference;
  const DistTrainResult ref =
      TrainDataParallel(w.make_model, *w.train, *w.val, w.cfg);

  SpawnOptions options;
  options.worker_binary = WorkerBinary();
  options.world = world;
  options.common_args = {"--workload=tiny", "--epochs=3"};
  options.log_dir = MakeLogDir("tcp2");
  options.timeout_s = 120.0;
  const SpawnResult run = SpawnWorld(options);
  ASSERT_TRUE(run.ok) << run.error;
  const uint64_t hash0 = ParseHash(run.rank_results[0]);
  EXPECT_EQ(hash0, ref.params_hash);
  EXPECT_EQ(ParseHash(run.rank_results[1]), hash0);
  if (!HasFailure()) {
    RemoveLogDir(options, run);
  }
}

// ---- Fault tolerance: crash, auto-restart, resume — the acceptance pin ----

int64_t ParseInt(const std::map<std::string, std::string>& kv, const char* key,
                 int64_t missing = -1) {
  const auto it = kv.find(key);
  return it == kv.end() ? missing : std::strtoll(it->second.c_str(), nullptr, 10);
}

// A world-3 TCP run with a rank killed mid-run — the kill placed so the
// recovery window SPANS the first freeze/reshard event — must auto-restart
// from the latest complete checkpoint and finish with weights bitwise-equal
// to the uninterrupted single-process reference.
TEST(DistributedProcess, CrashedWorldAutoRestartsAndMatchesReferenceBitwise) {
  const int world = 3;
  // Uninterrupted references: the sequential rank-0 reducer (the repo's
  // ground truth) and the in-process ring run (pinned equal to it by the
  // tests above), whose reshard timeline locates the first freeze.
  const DistTrainResult seq_ref = ReferenceRun("tiny", world, /*egeria=*/true);
  ASSERT_TRUE(seq_ref.replicas_consistent);
  DistWorkload ring_w = MakeDistWorkload("tiny");
  ring_w.cfg.world = world;
  ring_w.cfg.enable_egeria = true;
  const DistTrainResult ring_ref =
      TrainDataParallel(ring_w.make_model, *ring_w.train, *ring_w.val, ring_w.cfg);
  ASSERT_EQ(ring_ref.params_hash, seq_ref.params_hash);
  ASSERT_GE(ring_ref.reshard_events.size(), 2U) << "workload no longer freezes";
  const int64_t freeze_iter = ring_ref.reshard_events[1].iter;
  ASSERT_GE(freeze_iter, 4) << "freeze too early to stage a spanning checkpoint";
  ASSERT_LE(freeze_iter + 2, ring_ref.iterations - 3) << "freeze too late to crash after";
  // One checkpoint lands just before the freeze; the crash fires just after
  // the freeze+reshard applied, so the restart replays both from the
  // checkpoint (the next interval checkpoint, 2*(f-1), is past the crash).
  const int64_t ckpt_interval = freeze_iter - 1;
  const int64_t fault_iter = freeze_iter + 2;

  SpawnOptions options;
  options.worker_binary = WorkerBinary();
  options.world = world;
  options.log_dir = MakeLogDir("recover");
  const std::string ckpt_dir = options.log_dir + "/ckpt";
  options.common_args = {"--workload=tiny", "--egeria=1", "--ckpt-dir=" + ckpt_dir,
                         "--ckpt-interval=" + std::to_string(ckpt_interval)};
  options.per_rank_args = {{}, {"--fault=exit:" + std::to_string(fault_iter)}, {}};
  options.timeout_s = 240.0;
  RecoverySpec recovery;
  recovery.max_restarts = 1;
  recovery.ckpt_dir = ckpt_dir;
  const SpawnResult run = SpawnWorldWithRecovery(options, recovery);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.attempts, 2) << "fault injection never fired";

  ASSERT_EQ(run.rank_results.size(), static_cast<size_t>(world));
  const uint64_t hash0 = ParseHash(run.rank_results[0]);
  ASSERT_NE(hash0, 0U);
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(ParseHash(run.rank_results[static_cast<size_t>(r)]), hash0)
        << "rank " << r << " replica diverged";
    EXPECT_EQ(ParseInt(run.rank_results[static_cast<size_t>(r)], "resumed_from"),
              ckpt_interval)
        << "rank " << r << " did not resume from the pre-freeze checkpoint";
  }
  // The acceptance pin: crash + auto-restart == uninterrupted single-process
  // reference, bit for bit, across a freeze/reshard replay.
  EXPECT_EQ(hash0, seq_ref.params_hash);
  EXPECT_EQ(ParseInt(run.rank_results[0], "final_frontier"), seq_ref.final_frontier);
  if (!HasFailure()) {
    std::filesystem::remove_all(options.log_dir);
  }
}

// Elastic restart: a checkpoint written by a world-4 TCP-process run resumed
// by a world-3 process run (momentum shards re-folded through the
// reduction-contract partition) must match, bitwise, the in-process world-3
// resume of the same checkpoint.
TEST(DistributedProcess, ElasticRestartWorld4To3MatchesInProcessReference) {
  const std::string log_dir = MakeLogDir("elastic");
  const std::string dir_proc = log_dir + "/ckpt_proc";
  const std::string dir_ref = log_dir + "/ckpt_ref";

  // Stage a world-4 checkpoint in-process (bitwise-equal to what a 4-process
  // world writes: the weights are pinned across harnesses, shards and buffer
  // sections are deterministic functions of the run).
  DistWorkload stage = MakeDistWorkload("tiny");
  stage.cfg.world = 4;
  stage.cfg.enable_egeria = true;
  stage.cfg.ckpt.dir = dir_proc;
  stage.cfg.ckpt.interval_iters = 6;
  stage.cfg.stop_after_iters = 24;
  const DistTrainResult staged =
      TrainDataParallel(stage.make_model, *stage.train, *stage.val, stage.cfg);
  ASSERT_TRUE(staged.stopped_early);
  std::filesystem::copy(dir_proc, dir_ref, std::filesystem::copy_options::recursive);
  const auto latest = FindLatestCheckpoint(dir_proc);
  ASSERT_TRUE(latest.has_value());
  ASSERT_EQ(latest->iter, 24);
  ASSERT_EQ(latest->world, 4);

  // In-process elastic reference: resume the same checkpoint at world 3.
  DistWorkload ref = MakeDistWorkload("tiny");
  ref.cfg.world = 3;
  ref.cfg.enable_egeria = true;
  ref.cfg.ckpt.dir = dir_ref;
  ref.cfg.ckpt.interval_iters = 6;
  const DistTrainResult in_process =
      TrainDataParallel(ref.make_model, *ref.train, *ref.val, ref.cfg);
  ASSERT_EQ(in_process.resumed_from_iter, 24);
  ASSERT_TRUE(in_process.replicas_consistent);

  // Elastic restart as real OS processes over TCP.
  SpawnOptions options;
  options.worker_binary = WorkerBinary();
  options.world = 3;
  options.log_dir = log_dir + "/world3";
  options.common_args = {"--workload=tiny", "--egeria=1", "--ckpt-dir=" + dir_proc,
                         "--ckpt-interval=6"};
  options.timeout_s = 240.0;
  const SpawnResult run = SpawnWorld(options);
  ASSERT_TRUE(run.ok) << run.error;
  const uint64_t hash0 = ParseHash(run.rank_results[0]);
  ASSERT_NE(hash0, 0U);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(ParseHash(run.rank_results[static_cast<size_t>(r)]), hash0);
    EXPECT_EQ(ParseInt(run.rank_results[static_cast<size_t>(r)], "resumed_from"), 24);
  }
  // The elastic hash pin: 3 OS processes resuming a world-4 checkpoint ==
  // the in-process world-3 resume, bit for bit.
  EXPECT_EQ(hash0, in_process.params_hash);
  EXPECT_EQ(ParseInt(run.rank_results[0], "final_frontier"), in_process.final_frontier);
  if (!HasFailure()) {
    std::filesystem::remove_all(log_dir);
  }
}

TEST(DistributedProcess, KillOneRankSurfacesCleanTimeoutError) {
  SpawnOptions options;
  options.worker_binary = WorkerBinary();
  options.world = 3;
  // Heartbeat off: this test pins the launcher's own deadline as the
  // last-resort backstop when no failure detector is running.
  options.common_args = {"--workload=tiny", "--epochs=3", "--hb-interval=0"};
  // Rank 2 wedges mid-run (iteration 3): the survivors block in their
  // collectives; the launcher must kill the world at its deadline and say so,
  // not hang until the transport's much larger io timeout.
  options.per_rank_args = {{}, {}, {"--fault=hang:3"}};
  options.log_dir = MakeLogDir("hang");
  options.timeout_s = 8.0;
  const SpawnResult run = SpawnWorld(options);
  EXPECT_FALSE(run.ok);
  EXPECT_TRUE(run.timed_out);
  EXPECT_NE(run.error.find("timed out"), std::string::npos) << run.error;
  // The wedged rank is named so the failure is attributable from the summary.
  EXPECT_NE(run.error.find("2"), std::string::npos) << run.error;
  if (!HasFailure()) {
    RemoveLogDir(options, run);
  }
}

// The heartbeat failure detector: with --hb-interval=0.5, a rank that wedges
// between collectives must be detected by rank 0, the world aborted, and the
// survivors exited (code 4, EGERIA_ABORT) within a few seconds — strictly
// sooner than both the 60s transport io deadline and the launcher's own 30s
// backstop. This is the timed acceptance pin for O(heartbeat) detection.
TEST(DistributedProcess, HeartbeatDetectsHungRankWellUnderTransportDeadline) {
#if defined(EGERIA_TSAN_ACTIVE)
  // The 0.5s heartbeat grace assumes roughly-native execution speed; under
  // TSan's ~10x slowdown a HEALTHY rank can fall behind the grace window and
  // the detector (correctly, per its spec) names the wrong rank. The timing
  // envelope is pinned by the native CI jobs; TSan covers the detector's
  // thread-safety through every other dist suite.
  GTEST_SKIP() << "heartbeat timing envelope is meaningless under TSan";
#endif
  SpawnOptions options;
  options.worker_binary = WorkerBinary();
  options.world = 3;
  options.common_args = {"--workload=tiny", "--epochs=3", "--hb-interval=0.5",
                         "--io-timeout=60"};
  options.per_rank_args = {{}, {}, {"--fault=hang:3"}};
  options.log_dir = MakeLogDir("hbdetect");
  options.timeout_s = 30.0;
  const auto start = std::chrono::steady_clock::now();
  const SpawnResult run = SpawnWorld(options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(run.ok);
  // NOT the launcher deadline: the failure detector beat it. The world failed
  // fast through a survivor's clean exit-4 abort.
  EXPECT_FALSE(run.timed_out) << run.error;
  EXPECT_NE(run.error.find("exited with code 4"), std::string::npos) << run.error;
  // Detection + abort + exit must take O(heartbeat interval), not O(io
  // timeout). The bound is deliberately loose (slow CI) yet far under both
  // the 60s transport deadline and the 30s launcher backstop.
  EXPECT_LT(wall, 15.0) << "hung rank not detected in O(heartbeat interval)";
  // Rank 0's failure detector named the hung rank and broadcast the abort.
  std::ifstream log0(run.log_paths[0]);
  const std::string contents((std::istreambuf_iterator<char>(log0)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("EGERIA_ABORT"), std::string::npos) << contents;
  EXPECT_NE(contents.find("failure detector"), std::string::npos) << contents;
  EXPECT_NE(contents.find("rank 2"), std::string::npos) << contents;
  if (!HasFailure()) {
    RemoveLogDir(options, run);
  }
}

TEST(DistributedProcess, CrashedRankFailsTheWorldFast) {
  SpawnOptions options;
  options.worker_binary = WorkerBinary();
  options.world = 3;
  options.common_args = {"--workload=tiny", "--epochs=3"};
  options.per_rank_args = {{}, {"--fault=exit:3"}, {}};
  options.log_dir = MakeLogDir("crash");
  // Generous deadline: fail-fast must beat it by a wide margin (the survivors
  // are killed as soon as rank 1's nonzero exit is reaped).
  options.timeout_s = 60.0;
  const SpawnResult run = SpawnWorld(options);
  EXPECT_FALSE(run.ok);
  EXPECT_FALSE(run.timed_out);
  // Attribution races: rank 1's neighbors notice the dead socket and abort
  // almost as fast as rank 1 exits, so the launcher may reap either first. The
  // guarantees under test: a named-rank error, and rank 1's true exit code.
  EXPECT_NE(run.error.find("exited with code"), std::string::npos) << run.error;
  EXPECT_EQ(run.exit_codes[1], 3);
  if (!HasFailure()) {
    RemoveLogDir(options, run);
  }
}

// A numeric flag must parse whole and lie in its documented range; anything
// else is a usage error (exit 2) raised before the worker touches the
// rendezvous, never a run with a silently different setting ("4O" read as 4,
// "x" as 0 turning checkpoints or the heartbeat off) or a crash inside the
// transport (a rank outside the world).
TEST(DistributedProcess, MalformedNumericFlagsExitTwoBeforeConnecting) {
  const std::string log_dir = MakeLogDir("flags");
  const std::string rendezvous = log_dir + "/rendezvous";
  const std::vector<std::string> cases = {
      "--rank=0 --world=2 --ckpt-interval=4O",
      "--rank=1x --world=1",
      "--rank=1 --world=1",
      "--rank=0 --world=2 --ckpt-interval=x",
      "--rank=0 --world=2 --hb-interval=x",
  };
  for (const std::string& args : cases) {
    // A worker that wrongly accepted its flags would publish the rendezvous
    // and give up waiting for its peer after the connect timeout.
    const std::string cmd = WorkerBinary() + " --workload=tiny --rendezvous=" +
                            rendezvous + " --connect-timeout=5 " + args +
                            " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << args << ": worker did not exit";
    EXPECT_EQ(WEXITSTATUS(status), 2) << args;
    EXPECT_FALSE(std::filesystem::exists(rendezvous))
        << args << ": worker reached the rendezvous";
    std::filesystem::remove(rendezvous);
  }
  if (!HasFailure()) {
    std::filesystem::remove_all(log_dir);
  }
}

}  // namespace
}  // namespace egeria
