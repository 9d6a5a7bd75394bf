#include "src/obs/exporter.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace egeria {
namespace obs {
namespace {

// Accept loop wakes at this cadence to re-check the stop flag — the same
// bounded-poll idiom the transport uses for abort responsiveness.
constexpr int kAcceptPollMs = 200;
// Per-connection I/O deadline. A scraper that stalls longer is dropped.
constexpr int kIoTimeoutMs = 2000;
constexpr size_t kMaxRequestBytes = 8192;

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names use
// dots ("trainer.fp_s"); map every non-conforming byte to '_' and prefix the
// exporter namespace.
std::string PromName(const std::string& name) {
  std::string out = "egeria_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

// Bounded full-buffer send: poll for writability and retry until done or the
// deadline passes (mirrors the transport's SendAll deadline idiom).
bool SendAll(int fd, const char* data, size_t len) {
  size_t done = 0;
  int waited_ms = 0;
  while (done < len) {
    const ssize_t rc = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (waited_ms >= kIoTimeoutMs) return false;
      struct pollfd p = {fd, POLLOUT, 0};
      ::poll(&p, 1, 50);
      waited_ms += 50;
      continue;
    }
    return false;
  }
  return true;
}

// tmp+rename publish so a polling reader never sees a partial port number —
// the rendezvous-file pattern from tcp_transport.cc.
bool WritePortFile(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << port << "\n";
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

std::unique_ptr<Exporter> Exporter::Start(const ExporterOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return nullptr;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    ::close(fd);
    return nullptr;
  }

  std::unique_ptr<Exporter> e(new Exporter());
  e->listen_fd_ = fd;
  e->port_ = static_cast<int>(ntohs(addr.sin_port));
  e->options_ = options;
  e->start_ns_ = trace::NowNs();
  if (!options.port_file.empty() &&
      !WritePortFile(options.port_file, e->port_)) {
    ::close(fd);
    return nullptr;
  }
  e->server_ = std::thread(&Exporter::ServeLoop, e.get());
  return e;
}

Exporter::~Exporter() { Stop(); }

void Exporter::NoteIteration(int64_t iteration) {
  last_iteration_.store(iteration, std::memory_order_relaxed);
  last_iteration_ns_.store(trace::NowNs(), std::memory_order_relaxed);
}

void Exporter::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) {
    if (server_.joinable()) server_.join();
    return;
  }
  if (server_.joinable()) server_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::string Exporter::RenderPrometheusText() {
  const MetricsSnapshot snap = SnapshotAll();
  std::string out;
  out.reserve(4096);
  for (const auto& kv : snap.counters) {
    const std::string n = PromName(kv.first);
    out.append("# TYPE ").append(n).append(" counter\n");
    out.append(n).append(" ").append(std::to_string(kv.second)).push_back('\n');
  }
  for (const auto& kv : snap.gauges) {
    const std::string n = PromName(kv.first);
    out.append("# TYPE ").append(n).append(" gauge\n");
    out.append(n).append(" ");
    AppendDouble(&out, kv.second);
    out.push_back('\n');
  }
  for (const auto& h : snap.histograms) {
    const std::string n = PromName(h.name);
    out.append("# TYPE ").append(n).append(" histogram\n");
    int64_t cum = 0;
    for (const auto& bucket : h.buckets) {
      cum += bucket.second;
      if (std::isinf(bucket.first)) continue;  // folded into +Inf below
      out.append(n).append("_bucket{le=\"");
      AppendDouble(&out, bucket.first);
      out.append("\"} ").append(std::to_string(cum)).push_back('\n');
    }
    out.append(n).append("_bucket{le=\"+Inf\"} ")
        .append(std::to_string(h.count))
        .push_back('\n');
    out.append(n).append("_sum ");
    AppendDouble(&out, h.sum_s);
    out.push_back('\n');
    out.append(n).append("_count ").append(std::to_string(h.count)).push_back(
        '\n');
    // Derived quantiles as plain gauges (Prometheus histograms carry no
    // native quantile series; these come from the log-bucket interpolation).
    const struct {
      const char* suffix;
      double value;
    } qs[] = {{"_p50", h.p50_s}, {"_p90", h.p90_s}, {"_p99", h.p99_s}};
    for (const auto& q : qs) {
      const std::string qn = n + q.suffix;
      out.append("# TYPE ").append(qn).append(" gauge\n");
      out.append(qn).append(" ");
      AppendDouble(&out, q.value);
      out.push_back('\n');
    }
  }
  return out;
}

std::string Exporter::HandleRequest(const std::string& path,
                                    int* http_status) {
  *http_status = 200;
  if (path == "/metrics") {
    return RenderPrometheusText();
  }
  if (path == "/healthz") {
    const int64_t now_ns = trace::NowNs();
    const int64_t iter = last_iteration_.load(std::memory_order_relaxed);
    const double uptime_s =
        static_cast<double>(now_ns - start_ns_) * 1e-9;
    double since_s = -1.0;
    if (iter >= 0) {
      since_s = static_cast<double>(
                    now_ns - last_iteration_ns_.load(std::memory_order_relaxed)) *
                1e-9;
      if (options_.stale_after_s > 0.0 && since_s > options_.stale_after_s) {
        *http_status = 503;
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"rank\":%d,\"status\":\"%s\",\"uptime_s\":%.3f,"
                  "\"last_iteration\":%lld,"
                  "\"seconds_since_last_iteration\":%.3f}\n",
                  options_.rank, *http_status == 200 ? "ok" : "stale",
                  uptime_s, static_cast<long long>(iter), since_s);
    return buf;
  }
  if (path == "/trace" || path.rfind("/trace?", 0) == 0) {
    const bool drain = path.find("drain=1") != std::string::npos;
    return drain ? trace::FlushToString() : trace::SnapshotToString();
  }
  *http_status = 404;
  return "not found\n";
}

void Exporter::ServeLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd p = {listen_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, kAcceptPollMs);
    if (rc <= 0 || (p.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    struct timeval tv;
    tv.tv_sec = kIoTimeoutMs / 1000;
    tv.tv_usec = (kIoTimeoutMs % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Read until the end of the request headers, a size cap, or the timeout.
    std::string req;
    char chunk[1024];
    while (req.size() < kMaxRequestBytes &&
           req.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      req.append(chunk, static_cast<size_t>(n));
    }

    int status = 400;
    std::string body = "bad request\n";
    std::string content_type = "text/plain; charset=utf-8";
    const size_t sp1 = req.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : req.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      const std::string method = req.substr(0, sp1);
      const std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
      if (method != "GET") {
        status = 405;
        body = "method not allowed\n";
      } else {
        body = HandleRequest(path, &status);
        if (path == "/metrics") {
          content_type = "text/plain; version=0.0.4; charset=utf-8";
        } else if (path == "/healthz" || path.rfind("/trace", 0) == 0) {
          content_type = "application/json";
        }
      }
    }

    const char* reason = status == 200   ? "OK"
                         : status == 404 ? "Not Found"
                         : status == 405 ? "Method Not Allowed"
                         : status == 503 ? "Service Unavailable"
                                         : "Bad Request";
    char header[256];
    std::snprintf(header, sizeof(header),
                  "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                  "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                  status, reason, content_type.c_str(), body.size());
    if (SendAll(fd, header, std::strlen(header))) {
      SendAll(fd, body.data(), body.size());
    }
    ::close(fd);
  }
}

}  // namespace obs
}  // namespace egeria
