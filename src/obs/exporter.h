// Per-rank embedded HTTP exporter: a tiny single-threaded HTTP/1.0 server on
// an ephemeral 127.0.0.1 port that makes a live rank scrapeable:
//
//   GET /metrics  Prometheus text format (0.0.4): every registry counter and
//                 gauge, plus each histogram as cumulative _bucket/_sum/_count
//                 series with derived p50/p90/p99 gauges.
//   GET /healthz  JSON liveness: rank, uptime, last iteration seen and how
//                 long ago; 503 once iterations have started and then stall
//                 past the staleness threshold.
//   GET /trace    Bounded span snapshot as Chrome trace JSON (non-clearing;
//                 append ?drain=1 to also clear the buffers).
//
// The server runs on its own background thread and only READS the obs layer —
// it never touches the transport or emits collectives, so scraping a training
// run cannot perturb its op counts or its bitwise result (check.sh pins the
// training hash of a scraped run against an unscraped twin).
//
// The port is ephemeral (bind to port 0) and published via the same
// tmp+rename rendezvous-file pattern tcp_transport.cc uses, so scripts can
// poll `<trace_dir>/obs_port_rank<r>` instead of racing the bind. The socket
// accept/read/write paths reuse the transport's deadline idioms: poll with a
// short timeout re-checking a stop flag, bounded send/recv loops.
#ifndef EGERIA_SRC_OBS_EXPORTER_H_
#define EGERIA_SRC_OBS_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace egeria {
namespace obs {

struct ExporterOptions {
  int rank = 0;
  // When non-empty, the bound port is written here (tmp+rename, so readers
  // never observe a partial write).
  std::string port_file;
  // /healthz turns 503 when iterations have started and the most recent one
  // is older than this many seconds. <= 0 disables staleness checking.
  double stale_after_s = 30.0;
};

class Exporter {
 public:
  // Binds 127.0.0.1:0, publishes the port file, and starts the serve thread.
  // Returns nullptr if the socket could not be bound (exporter is optional
  // telemetry — callers log and continue).
  static std::unique_ptr<Exporter> Start(const ExporterOptions& options);

  ~Exporter();  // Stop() + join

  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  int Port() const { return port_; }

  // Record training progress for /healthz. Lock-free; called once per
  // iteration from the trainer's iteration hook.
  void NoteIteration(int64_t iteration);

  // Idempotent shutdown: flips the stop flag and joins the serve thread.
  void Stop();

  // Rendered /metrics body, exposed for unit tests (no HTTP needed).
  static std::string RenderPrometheusText();

 private:
  Exporter() = default;
  void ServeLoop();
  std::string HandleRequest(const std::string& path, int* http_status);

  int listen_fd_ = -1;
  int port_ = 0;
  ExporterOptions options_;
  std::thread server_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> last_iteration_{-1};
  std::atomic<int64_t> last_iteration_ns_{0};
  int64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace egeria

#endif  // EGERIA_SRC_OBS_EXPORTER_H_
