// egeria_worker: one rank of a multi-process data-parallel world.
//
// Launched W times (by SpawnWorld, scripts/launch_dist.sh, or by hand) with a
// shared rendezvous file; each process wires itself into the TCP ring, runs
// the same per-rank training loop the in-process harness uses (TrainRank), and
// reports machine-readable results on stdout:
//
//   EGERIA_RESULT rank=.. world=.. params_hash=.. final_frontier=.. ...
//   EGERIA_RESHARD iter=.. frontier=.. payload_bytes=.. allreduce_s_per_iter=..
//
// The EGERIA_RESULT params_hash of every rank of a TCP world is bitwise-equal
// to the single-process sequential-reference run of the same workload — the
// reduction contract, across OS processes and a real wire.
//
// Failure protocol (see src/distributed/README.md "Failure model"): a rank
// whose training loop ends on a transport error prints
//
//   EGERIA_ABORT rank=.. code=.. reason=".."
//
// and exits 4 (kCleanAbortExitCode). The launcher gives the survivors, who are
// themselves aborting after the heartbeat broadcast, a short grace to do the
// same, kills those still running and, under
// SpawnWorldWithRecovery, relaunches the world to resume from the latest
// complete checkpoint.
//
// Flags:
//   --rank=R --world=W --rendezvous=PATH   (required; env EGERIA_RANK /
//       EGERIA_WORLD / EGERIA_RENDEZVOUS are fallbacks; W >= 1, 0 <= R < W)
//   --workload=tiny|fig10   (default tiny; see src/distributed/dist_workload.h)
//   --epochs=N              (override the workload default; N >= 1)
//   --egeria=0|1            (enable the freezing controller; default 0)
//   --ckpt-dir=PATH         (checkpoint root; with a complete checkpoint
//       present the rank RESUMES from it — rerunning the same command after a
//       crash continues the run, even at a different --world: elastic restart)
//   --ckpt-interval=N       (snapshot every N iterations; default 0 = off)
//   --ckpt-keep=N           (complete checkpoints retained; default 2, N >= 1)
//   --stop-after=N          (stop cleanly after N >= 1 iterations, writing a
//       final checkpoint — stages elastic-restart drills from the command line)
//   --async-ckpt=0|1        (background checkpoint writes with deferred
//       manifest commit; default 1. Persisted state is bitwise-identical.)
//   --connect-timeout=S --io-timeout=S   (seconds, S > 0)
//   --hb-interval=S         (heartbeat failure-detector period; default 2.0,
//       0 disables. Every rank of a world must agree.)
//   --fault=SPEC            (test-only deterministic fault injection: comma-
//       separated kind:iter entries with kinds
//       corrupt/truncate/delay/drop/dup/hang/exit, or a single seed:S entry;
//       see src/distributed/transport/fault_injection.h. Frame faults fire
//       inside the TCP transport's framed pump, the wire path every world
//       runs. hang:0 / exit:0 fire before the transport even connects. An
//       entry may carry a rank qualifier, kind@rank:iter, so one launch
//       command can fault a single rank of the world. Malformed specs are a
//       usage error, exit 2.)
//
// A numeric value must parse whole and lie in its range above; anything else
// (trailing junk, a non-number, an out-of-range value) is a usage error, exit 2,
// raised before the rank touches the rendezvous.
//
// Env: EGERIA_TRACE=1 writes trace_rank<r>.json at exit; EGERIA_EXPORTER=1
// starts the live HTTP exporter (/metrics, /healthz, /trace — see
// src/obs/exporter.h) on an ephemeral loopback port published to
// $EGERIA_TRACE_DIR/obs_port_rank<r>.
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/distributed/dist_trainer.h"
#include "src/distributed/dist_workload.h"
#include "src/distributed/process_launcher.h"
#include "src/distributed/transport/fault_injection.h"
#include "src/distributed/transport/tcp_transport.h"
#include "src/obs/exporter.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace egeria {
namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) {
    return false;
  }
  *out = arg + prefix.size();
  return true;
}

// The flag's value, else $env_name; neither is a usage error (exit 2).
std::string FlagOrEnv(const char* flag, const char* env_name,
                      const std::string& flag_value) {
  if (!flag_value.empty()) {
    return flag_value;
  }
  if (const char* env = std::getenv(env_name)) {
    return env;
  }
  std::fprintf(stderr, "egeria_worker: missing --%s / $%s\n", flag, env_name);
  std::exit(2);
}

// The whole of `value` as a base-10 integer in [lo, hi], else a usage error
// (exit 2). atoi would read "4O" as 4 and "x" as 0.
int64_t IntFlag(const char* flag, const std::string& value, int64_t lo, int64_t hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) {
    std::fprintf(stderr, "egeria_worker: --%s=%s: expected an integer in [%lld, %lld]\n",
                 flag, value.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi));
    std::exit(2);
  }
  return v;
}

// The whole of `value` as a finite number of seconds, > 0 (or >= 0 when
// `zero_ok`), else a usage error (exit 2).
double SecondsFlag(const char* flag, const std::string& value, bool zero_ok) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !std::isfinite(v) || v < 0.0 ||
      (v == 0.0 && !zero_ok)) {
    std::fprintf(stderr, "egeria_worker: --%s=%s: expected seconds %s 0\n", flag,
                 value.c_str(), zero_ok ? ">=" : ">");
    std::exit(2);
  }
  return v;
}

[[noreturn]] void HangForever() {
  for (;;) {
    sleep(3600);
  }
}

bool TruthyEnv(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return false;
  }
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0 || std::strcmp(v, "yes") == 0;
}

std::string TraceDir() {
  const char* env_dir = std::getenv("EGERIA_TRACE_DIR");
  return env_dir != nullptr && env_dir[0] != '\0' ? env_dir : ".";
}

// Flush per-rank observability artifacts: the trace (when EGERIA_TRACE is on)
// to trace_rank<r>.json under $EGERIA_TRACE_DIR (default: cwd), and a metrics
// snapshot alongside it. Called on BOTH the clean-exit and the EGERIA_ABORT
// path — an aborting rank's trace is precisely the one worth reading.
void FlushObservability(int rank) {
  const bool want_metrics = std::getenv("EGERIA_METRICS") != nullptr;
  if (!trace::Enabled() && !want_metrics) {
    return;
  }
  const std::string dir = TraceDir();
  if (trace::Enabled()) {
    const std::string path = dir + "/trace_rank" + std::to_string(rank) + ".json";
    if (trace::Flush(path)) {
      std::printf("EGERIA_TRACE rank=%d file=%s\n", rank, path.c_str());
    } else {
      std::fprintf(stderr, "egeria_worker: trace flush to %s failed\n",
                   path.c_str());
    }
  }
  const std::string mpath = dir + "/metrics_rank" + std::to_string(rank) + ".txt";
  if (FILE* f = std::fopen(mpath.c_str(), "w")) {
    const std::string snap = obs::SnapshotText();
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fclose(f);
  }
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  std::string rank_s;
  std::string world_s;
  std::string rendezvous;
  std::string workload_name = "tiny";
  std::string epochs_s;
  std::string egeria_s = "0";
  std::string connect_timeout_s;
  std::string io_timeout_s;
  std::string hb_interval_s;
  std::string fault;
  std::string ckpt_dir;
  std::string ckpt_interval_s;
  std::string ckpt_keep_s;
  std::string stop_after_s;
  std::string async_ckpt_s = "1";
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (FlagValue(a, "rank", &rank_s) || FlagValue(a, "world", &world_s) ||
        FlagValue(a, "rendezvous", &rendezvous) ||
        FlagValue(a, "workload", &workload_name) ||
        FlagValue(a, "epochs", &epochs_s) || FlagValue(a, "egeria", &egeria_s) ||
        FlagValue(a, "ckpt-dir", &ckpt_dir) ||
        FlagValue(a, "ckpt-interval", &ckpt_interval_s) ||
        FlagValue(a, "ckpt-keep", &ckpt_keep_s) ||
        FlagValue(a, "stop-after", &stop_after_s) ||
        FlagValue(a, "async-ckpt", &async_ckpt_s) ||
        FlagValue(a, "connect-timeout", &connect_timeout_s) ||
        FlagValue(a, "io-timeout", &io_timeout_s) ||
        FlagValue(a, "hb-interval", &hb_interval_s) ||
        FlagValue(a, "fault", &fault)) {
      continue;
    }
    std::fprintf(stderr, "egeria_worker: unknown argument %s\n", a);
    return 2;
  }
  // Numeric flags are validated from here on, before anything connects.
  const int world = static_cast<int>(
      IntFlag("world", FlagOrEnv("world", "EGERIA_WORLD", world_s), 1, INT_MAX));
  const int rank = static_cast<int>(
      IntFlag("rank", FlagOrEnv("rank", "EGERIA_RANK", rank_s), 0, world - 1));
  // One rank per process: tag every log line and trace event with the rank
  // before any subsystem starts threads.
  SetLogRankTag(rank);
  trace::InitFromEnv();
  trace::SetProcessRank(rank);
  trace::SetProcessLabel("egeria_worker rank " + std::to_string(rank));
  DistWorkload w = MakeDistWorkload(workload_name);
  w.cfg.world = world;
  if (!epochs_s.empty()) {
    w.cfg.epochs = static_cast<int>(IntFlag("epochs", epochs_s, 1, INT_MAX));
  }
  w.cfg.enable_egeria = IntFlag("egeria", egeria_s, 0, 1) != 0;
  w.cfg.reducer = DistTrainConfig::Reducer::kRingSharded;
  w.cfg.ckpt.dir = ckpt_dir;
  if (!ckpt_interval_s.empty()) {
    w.cfg.ckpt.interval_iters = IntFlag("ckpt-interval", ckpt_interval_s, 0, INT64_MAX);
  }
  if (!ckpt_keep_s.empty()) {
    w.cfg.ckpt.keep_last = static_cast<int>(IntFlag("ckpt-keep", ckpt_keep_s, 1, INT_MAX));
  }
  if (!stop_after_s.empty()) {
    w.cfg.stop_after_iters = IntFlag("stop-after", stop_after_s, 1, INT64_MAX);
  }
  w.cfg.ckpt.async_save = IntFlag("async-ckpt", async_ckpt_s, 0, 1) != 0;

  TcpTransportOptions topts;
  topts.rank = rank;
  topts.world = world;
  topts.heartbeat_interval_s =
      hb_interval_s.empty() ? 2.0 : SecondsFlag("hb-interval", hb_interval_s, true);
  if (!connect_timeout_s.empty()) {
    topts.connect_timeout_s = SecondsFlag("connect-timeout", connect_timeout_s, false);
  }
  if (!io_timeout_s.empty()) {
    topts.io_timeout_s = SecondsFlag("io-timeout", io_timeout_s, false);
  }

  if (rendezvous.empty()) {
    if (const char* env = std::getenv("EGERIA_RENDEZVOUS")) {
      rendezvous = env;
    }
  }
  if (rendezvous.empty() && world > 1) {
    std::fprintf(stderr, "egeria_worker: missing --rendezvous / $EGERIA_RENDEZVOUS\n");
    return 2;
  }

  // Strictly validated fault plan: an unknown kind or malformed iteration is
  // a usage error (exit 2), never a silently clean run.
  FaultPlan plan;
  if (!fault.empty()) {
    std::string error;
    if (!FaultPlan::Parse(fault, world, rank, &plan, &error)) {
      std::fprintf(stderr, "egeria_worker: %s\n", error.c_str());
      return 2;
    }
  }
  // Pre-wiring process faults: peers see a silent (hang) or failed (exit)
  // rank at rendezvous time.
  for (const FaultEvent& ev : plan.events) {
    if (ev.iter <= 0) {
      if (ev.kind == FaultKind::kHang) {
        HangForever();
      }
      if (ev.kind == FaultKind::kExit) {
        return 3;
      }
    }
  }

  topts.rendezvous_file = rendezvous;
  // Transport-level faults fire inside the TCP pump, after the frame digest
  // is fixed; the iteration hook below arms them.
  topts.faults = plan.empty() ? nullptr : &plan;
  std::unique_ptr<Transport> transport = MakeTcpTransport(topts);

  // Optional live telemetry: $EGERIA_EXPORTER=1 starts the per-rank HTTP
  // exporter on an ephemeral loopback port, published to
  // $EGERIA_TRACE_DIR/obs_port_rank<r> (rendezvous-file pattern). The server
  // only reads the obs registry — no collectives, so the training result is
  // bitwise-unchanged whether or not anyone scrapes.
  std::unique_ptr<obs::Exporter> exporter;
  if (TruthyEnv("EGERIA_EXPORTER")) {
    obs::ExporterOptions eopts;
    eopts.rank = rank;
    eopts.port_file = TraceDir() + "/obs_port_rank" + std::to_string(rank);
    exporter = obs::Exporter::Start(eopts);
    if (exporter != nullptr) {
      std::printf("EGERIA_EXPORTER rank=%d port=%d\n", rank, exporter->Port());
      std::fflush(stdout);
    } else {
      std::fprintf(stderr, "egeria_worker: exporter failed to start (rank %d)\n",
                   rank);
    }
  }

  obs::Exporter* exporter_ptr = exporter.get();
  w.cfg.iteration_hook = [rank, exporter_ptr, &plan](int r, int64_t iter) {
    if (r != rank) {
      return;
    }
    if (exporter_ptr != nullptr) {
      exporter_ptr->NoteIteration(iter);
    }
    plan.BeginIteration(iter);
    for (const FaultEvent& ev : plan.events) {
      if (ev.iter != iter) {
        continue;
      }
      if (ev.kind == FaultKind::kHang) {
        HangForever();
      }
      if (ev.kind == FaultKind::kExit) {
        std::exit(3);
      }
    }
  };

  RankTrainResult r =
      TrainRank(*transport, w.make_model, *w.train, *w.val, w.cfg, nullptr);
  if (!r.status.ok()) {
    trace::AddInstantF("worker", "abort", "{\"code\":\"%s\"}",
                       r.status.code_name());
    std::printf("EGERIA_ABORT rank=%d code=%s reason=\"%s\"\n", rank,
                r.status.code_name(), r.status.message.c_str());
    std::fflush(stdout);
    FlushObservability(rank);
    return kCleanAbortExitCode;
  }

  for (const DistReshardEvent& ev : r.reshard_events) {
    std::printf("EGERIA_RESHARD iter=%lld frontier=%d active_elems=%lld "
                "payload_bytes=%lld opt_state_bytes=%lld allreduce_s_per_iter=%.6f\n",
                static_cast<long long>(ev.iter), ev.frontier,
                static_cast<long long>(ev.active_elems),
                static_cast<long long>(ev.payload_bytes_per_iter),
                static_cast<long long>(ev.opt_state_bytes_per_rank),
                ev.allreduce_seconds_per_iter);
  }
  std::printf("EGERIA_RESULT rank=%d world=%d workload=%s params_hash=%016llx "
              "final_frontier=%d iterations=%lld bytes_synced=%lld "
              "bytes_full_model=%lld wire_bytes=%lld allreduce_seconds=%.6f "
              "final_acc=%.4f resumed_from=%lld stopped_early=%d "
              "data_s=%.6f fp_s=%.6f bp_s=%.6f opt_s=%.6f train_s=%.6f\n",
              rank, world, w.name.c_str(),
              static_cast<unsigned long long>(r.params_hash), r.final_frontier,
              static_cast<long long>(r.iterations),
              static_cast<long long>(r.bytes_synced),
              static_cast<long long>(r.bytes_full_model),
              static_cast<long long>(r.wire_bytes), r.allreduce_seconds,
              r.final_display, static_cast<long long>(r.resumed_from_iter),
              r.stopped_early ? 1 : 0, r.data_seconds, r.fp_seconds,
              r.bp_seconds, r.opt_seconds, r.train_seconds);
  FlushObservability(rank);
  return 0;
}

}  // namespace
}  // namespace egeria

int main(int argc, char** argv) { return egeria::Main(argc, argv); }
