// Fork/exec launcher for multi-process worlds: spawns one egeria_worker
// process per rank, wires them to a fresh rendezvous file, redirects each
// rank's output to a per-rank log, and supervises the world to completion.
//
// Failure handling is the point of this helper: a rank that exits nonzero
// fails the world FAST (the survivors are killed instead of blocking in their
// collectives until the transport deadline), and a rank that wedges trips the
// overall timeout, after which everything is killed and a clean, attributable
// error string comes back — the launcher never hangs. A rank that exits with
// kCleanAbortExitCode has unwound through a typed transport error its peers
// see too, so they get a short grace to report their own abort and exit
// before they are killed.
#ifndef EGERIA_SRC_DISTRIBUTED_PROCESS_LAUNCHER_H_
#define EGERIA_SRC_DISTRIBUTED_PROCESS_LAUNCHER_H_

#include <map>
#include <string>
#include <vector>

namespace egeria {

// egeria_worker's exit code after a transport error ended its run cleanly
// (it printed an EGERIA_ABORT line and wrote no torn checkpoint).
constexpr int kCleanAbortExitCode = 4;

struct SpawnOptions {
  std::string worker_binary;
  int world = 2;
  // Appended to every rank's command line after the launcher-owned
  // --rank/--world/--rendezvous flags.
  std::vector<std::string> common_args;
  // Optional per-rank extras (fault injection in tests); may be shorter than
  // `world`.
  std::vector<std::vector<std::string>> per_rank_args;
  // Directory for rank_<r>.log files and the rendezvous file; created if
  // missing. Must be unique per spawn (parallel jobs must not share it).
  std::string log_dir;
  double timeout_s = 300.0;
};

struct SpawnResult {
  bool ok = false;
  bool timed_out = false;
  std::string error;               // empty iff ok
  std::vector<int> exit_codes;     // per rank; -1 = killed before exiting
  std::vector<std::string> log_paths;
  // key=value pairs parsed from each rank's "EGERIA_RESULT ..." log line.
  std::vector<std::map<std::string, std::string>> rank_results;
  // One map per "EGERIA_RESHARD ..." line in rank 0's log, in order.
  std::vector<std::map<std::string, std::string>> reshard_timeline;
  // Worlds launched in total (1 = no restart was needed). Only
  // SpawnWorldWithRecovery ever reports more than 1.
  int attempts = 1;
  // World size of the attempt this result describes (elastic restarts may
  // shrink it below SpawnOptions::world).
  int final_world = 0;
};

// Blocks until every rank exits, a rank fails, or the timeout expires.
SpawnResult SpawnWorld(const SpawnOptions& options);

// Fault-tolerant supervision on top of SpawnWorld. A crashed or wedged world
// is killed (SpawnWorld's fail-fast/timeout semantics) and relaunched up to
// `max_restarts` times; workers launched with --ckpt-dir pointing at
// `ckpt_dir` resume from the latest complete checkpoint on their own, so a
// restart continues the run rather than repeating it (with no checkpoint yet,
// the restart deterministically recomputes from scratch — same final state).
struct RecoverySpec {
  int max_restarts = 2;
  // Checkpoint root the workers write/resume from; used by the launcher only
  // to report the resume point. Pass it to the workers via --ckpt-dir in
  // SpawnOptions::common_args.
  std::string ckpt_dir;
  // Elastic restart: each restart drops one rank (floor 1), modeling a world
  // that permanently lost a machine. The workers re-fold the saved optimizer
  // shards through the reduction-contract partition at the new size.
  bool shrink_world_on_restart = false;
  // Sleep before the first relaunch; it doubles per attempt up to 30 s, so a
  // crash-looping world does not hammer the machine yet restarts promptly.
  double backoff_initial_s = 0.5;
};

// Each attempt runs in <options.log_dir>/attempt_<n>. Per-rank extras
// (SpawnOptions::per_rank_args, fault injection in tests) are one-shot:
// restarts drop them so an injected crash cannot re-fire forever. Returns the
// final attempt's result with `attempts` filled in.
SpawnResult SpawnWorldWithRecovery(const SpawnOptions& options,
                                   const RecoverySpec& recovery);

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_PROCESS_LAUNCHER_H_
