#include "src/distributed/transport/tcp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/distributed/transport/frame_digest.h"
#include "src/distributed/transport/fault_injection.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace egeria {
namespace {

using Clock = std::chrono::steady_clock;
using Deadline = Clock::time_point;

constexpr uint32_t kHelloMagic = 0xE9E41A01U;
constexpr uint32_t kHelloJoin = 1;  // rank -> rank 0, carries listener port
constexpr uint32_t kHelloRing = 2;  // rank -> ring-next, data-plane link
constexpr uint32_t kHelloHb = 3;    // rank -> rank 0, heartbeat link

// Frame layout (tcp_transport.h): [u32 frame_len][u32 seq][u16 kind][u16 src]
// before the payload, [u64 digest] after it; frame_len counts every byte that
// follows it.
constexpr size_t kFrameHeaderBytes = 12;
constexpr size_t kFrameTrailerBytes = 8;
constexpr int64_t kFrameOverheadBytes = kFrameHeaderBytes - 4 + kFrameTrailerBytes;
constexpr uint16_t kFrameKindRing = 1;
constexpr uint16_t kFrameKindBcast = 2;

// A blocked collective re-checks the local abort flag at this cadence, so a
// coordinated abort interrupts it promptly even with a long io deadline.
constexpr int kAbortPollMs = 50;

// Heartbeat records: fixed 13 bytes, [u8 type][u32 a][u32 b][u32 c] LE.
// PING carries (ops_started, ops_completed, 0); BYE and ABORT ignore a/b/c.
constexpr uint8_t kHbPing = 1;
constexpr uint8_t kHbBye = 2;
constexpr uint8_t kHbAbort = 3;
constexpr size_t kHbRecordBytes = 13;

void EncodeU32(uint32_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v & 0xFFU);
  out[1] = static_cast<uint8_t>((v >> 8) & 0xFFU);
  out[2] = static_cast<uint8_t>((v >> 16) & 0xFFU);
  out[3] = static_cast<uint8_t>((v >> 24) & 0xFFU);
}

uint32_t DecodeU32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) | (static_cast<uint32_t>(in[3]) << 24);
}

void EncodeU16(uint16_t v, uint8_t* out) {
  out[0] = static_cast<uint8_t>(v & 0xFFU);
  out[1] = static_cast<uint8_t>((v >> 8) & 0xFFU);
}

uint16_t DecodeU16(const uint8_t* in) {
  return static_cast<uint16_t>(static_cast<uint16_t>(in[0]) |
                               (static_cast<uint16_t>(in[1]) << 8));
}

void EncodeU64(uint64_t v, uint8_t* out) {
  EncodeU32(static_cast<uint32_t>(v & 0xFFFFFFFFULL), out);
  EncodeU32(static_cast<uint32_t>(v >> 32), out + 4);
}

uint64_t DecodeU64(const uint8_t* in) {
  return static_cast<uint64_t>(DecodeU32(in)) |
         (static_cast<uint64_t>(DecodeU32(in + 4)) << 32);
}

std::string Hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int RemainingMs(Deadline deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  if (left <= 0) {
    return 0;
  }
  return static_cast<int>(left > 60'000 ? 60'000 : left);
}

bool Expired(Deadline deadline) { return Clock::now() >= deadline; }

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  EGERIA_CHECK_MSG(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                   "fcntl(O_NONBLOCK) failed");
}

void SetNoDelay(int fd) {
  int one = 1;
  EGERIA_CHECK_MSG(
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0,
      "setsockopt(TCP_NODELAY) failed");
}

// ---- Blocking I/O: the one loop for wiring, collectives and the heartbeat ----

// How a bounded blocking-I/O call ended.
enum class Io {
  kOk,
  kTimeout,     // the deadline passed
  kAborted,     // the abort flag was set
  kPollFailed,  // poll() itself failed
  kClosed,      // the peer closed the link
  kFailed,      // send() or recv() failed
};

// Waits until `fd` is ready for `events` or the deadline passes. A non-null
// `abort` flag is re-checked every kAbortPollMs, so a coordinated abort
// interrupts the wait promptly even with a long deadline.
Io WaitFd(int fd, short events, Deadline deadline, const std::atomic<bool>* abort) {
  for (;;) {
    if (abort != nullptr && abort->load(std::memory_order_acquire)) {
      return Io::kAborted;
    }
    struct pollfd p = {fd, events, 0};
    const int rc = poll(&p, 1, std::min(RemainingMs(deadline), kAbortPollMs));
    if (rc > 0) {
      return Io::kOk;  // Ready (or error condition: the next send/recv reports it).
    }
    if (rc < 0 && errno != EINTR) {
      return Io::kPollFailed;
    }
    if (rc == 0 && Expired(deadline)) {
      return Io::kTimeout;
    }
  }
}

Io SendAll(int fd, const void* buf, size_t n, Deadline deadline,
           const std::atomic<bool>* abort) {
  const auto* p = static_cast<const uint8_t*>(buf);
  for (size_t done = 0; done < n;) {
    const ssize_t rc = ::send(fd, p + done, n - done, MSG_NOSIGNAL);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      continue;
    }
    if (!(rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))) {
      return Io::kFailed;
    }
    const Io io = WaitFd(fd, POLLOUT, deadline, abort);
    if (io != Io::kOk) {
      return io;
    }
  }
  return Io::kOk;
}

Io RecvAll(int fd, void* buf, size_t n, Deadline deadline,
           const std::atomic<bool>* abort) {
  auto* p = static_cast<uint8_t*>(buf);
  for (size_t done = 0; done < n;) {
    const ssize_t rc = ::recv(fd, p + done, n - done, 0);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      return Io::kClosed;
    }
    if (!(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return Io::kFailed;
    }
    const Io io = WaitFd(fd, POLLIN, deadline, abort);
    if (io != Io::kOk) {
      return io;
    }
  }
  return Io::kOk;
}

// Wiring runs at construction, with nothing to recover yet: any result but
// kOk is fatal.
void CheckWiring(Io io, const char* what) {
  static constexpr const char* kWhy[] = {"ok", "timed out", "aborted", "poll failed",
                                         "peer closed the connection", "socket call failed"};
  EGERIA_CHECK_MSG(io == Io::kOk, std::string("tcp transport wiring failed to ") + what +
                                      ": " + kWhy[static_cast<int>(io)]);
}

struct Hello {
  uint32_t kind = 0;
  uint32_t rank = 0;
  uint32_t port = 0;
};

void SendHello(int fd, const Hello& h, Deadline deadline) {
  uint8_t wire[16];
  EncodeU32(kHelloMagic, wire);
  EncodeU32(h.kind, wire + 4);
  EncodeU32(h.rank, wire + 8);
  EncodeU32(h.port, wire + 12);
  CheckWiring(SendAll(fd, wire, sizeof(wire), deadline, nullptr), "send a hello");
}

Hello RecvHello(int fd, Deadline deadline) {
  uint8_t wire[16];
  CheckWiring(RecvAll(fd, wire, sizeof(wire), deadline, nullptr), "receive a hello");
  EGERIA_CHECK_MSG(DecodeU32(wire) == kHelloMagic,
                   "bad hello magic (mixed worlds on one rendezvous file?)");
  return Hello{DecodeU32(wire + 4), DecodeU32(wire + 8), DecodeU32(wire + 12)};
}

// Listener on 127.0.0.1 with a kernel-chosen ephemeral port.
int ListenEphemeral(uint16_t* port_out) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EGERIA_CHECK_MSG(fd >= 0, "socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // Ephemeral: never collides across parallel jobs.
  EGERIA_CHECK_MSG(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                   "bind(127.0.0.1:0) failed");
  EGERIA_CHECK_MSG(listen(fd, 64) == 0, "listen() failed");
  socklen_t len = sizeof(addr);
  EGERIA_CHECK_MSG(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                   "getsockname() failed");
  *port_out = ntohs(addr.sin_port);
  return fd;
}

int AcceptWithDeadline(int listen_fd, Deadline deadline) {
  CheckWiring(WaitFd(listen_fd, POLLIN, deadline, nullptr), "accept a rank connection");
  const int fd = accept(listen_fd, nullptr, nullptr);
  EGERIA_CHECK_MSG(fd >= 0, "accept() failed");
  SetNoDelay(fd);
  SetNonBlocking(fd);
  return fd;
}

// Connects to 127.0.0.1:`port` (rank `peer_rank`'s listener) with bounded
// attempts and exponential backoff + deterministic jitter — early attempts
// retry fast (the peer is usually milliseconds from listening), later ones
// back off so W ranks hammering one listener don't synchronize their retries.
// A wiring failure is fatal: the diagnostic names the peer and attempt count.
constexpr int kMaxConnectAttempts = 64;

int ConnectRetry(uint16_t port, int peer_rank, int my_rank, Deadline deadline) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int64_t backoff_us = 1'000;
  for (int attempt = 1;; ++attempt) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    EGERIA_CHECK_MSG(fd >= 0, "socket() failed");
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      SetNoDelay(fd);
      SetNonBlocking(fd);
      return fd;
    }
    const int err = errno;
    close(fd);
    EGERIA_CHECK_MSG(
        !(Expired(deadline) || attempt >= kMaxConnectAttempts),
        "tcp transport: rank " + std::to_string(my_rank) + " failed to connect to "
            "rank " + std::to_string(peer_rank) + " at 127.0.0.1:" +
            std::to_string(port) + " after " + std::to_string(attempt) +
            " attempts (last error: " + std::strerror(err) + ")");
    // Deterministic jitter (no global RNG): mix rank and attempt so parallel
    // ranks desynchronize identically across runs.
    uint64_t mix = (static_cast<uint64_t>(my_rank) << 32) ^
                   static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL;
    mix ^= mix >> 29;
    mix *= 0xBF58476D1CE4E5B9ULL;
    mix ^= mix >> 32;
    const int64_t jitter_us = static_cast<int64_t>(mix % static_cast<uint64_t>(backoff_us + 1));
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us + jitter_us));
    backoff_us = std::min<int64_t>(backoff_us * 2, 200'000);
  }
}

// Atomic publish: a reader never sees a half-written file.
void WriteRendezvousFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  EGERIA_CHECK_MSG(f != nullptr, "cannot write rendezvous file " + tmp);
  std::fprintf(f, "127.0.0.1 %u\n", static_cast<unsigned>(port));
  std::fclose(f);
  EGERIA_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                   "cannot publish rendezvous file " + path);
}

uint16_t PollRendezvousFile(const std::string& path, Deadline deadline) {
  for (;;) {
    FILE* f = std::fopen(path.c_str(), "r");
    if (f != nullptr) {
      char host[64];
      unsigned port = 0;
      const int n = std::fscanf(f, "%63s %u", host, &port);
      std::fclose(f);
      if (n == 2 && port > 0 && port <= 65535) {
        return static_cast<uint16_t>(port);
      }
    }
    EGERIA_CHECK_MSG(!Expired(deadline),
                     "tcp transport timed out waiting for rendezvous file " + path);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void EncodeHbRecord(uint8_t type, uint32_t a, uint32_t b, uint32_t c,
                    uint8_t* out) {
  out[0] = type;
  EncodeU32(a, out + 1);
  EncodeU32(b, out + 5);
  EncodeU32(c, out + 9);
}

std::string FmtSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", s);
  return buf;
}

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(const TcpTransportOptions& options)
      : rank_(options.rank),
        world_(options.world),
        io_timeout_s_(options.io_timeout_s),
        hb_interval_s_(options.heartbeat_interval_s),
        faults_(options.faults) {
    EGERIA_CHECK(world_ >= 1 && rank_ >= 0 && rank_ < world_);
    if (world_ == 1) {
      return;
    }
    EGERIA_CHECK_MSG(!options.rendezvous_file.empty(),
                     "tcp transport needs a rendezvous file");
    const bool hb = hb_interval_s_ > 0.0;
    const Deadline deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.connect_timeout_s));

    uint16_t my_port = 0;
    const int listen_fd = ListenEphemeral(&my_port);
    std::vector<uint16_t> ports(static_cast<size_t>(world_), 0);
    ports[0] = my_port;

    if (rank_ == 0) {
      WriteRendezvousFile(options.rendezvous_file, my_port);
      // Collect every rank's JOIN before publishing the port map, so no RING
      // or HB hello can reach this listener until all joins are accepted.
      ctrl_fds_.assign(static_cast<size_t>(world_), -1);
      for (int joined = 1; joined < world_; ++joined) {
        const int fd = AcceptWithDeadline(listen_fd, deadline);
        const Hello h = RecvHello(fd, deadline);
        EGERIA_CHECK_MSG(h.kind == kHelloJoin && h.rank > 0 &&
                             h.rank < static_cast<uint32_t>(world_) &&
                             ctrl_fds_[h.rank] < 0,
                         "unexpected join hello");
        ctrl_fds_[h.rank] = fd;
        ports[h.rank] = static_cast<uint16_t>(h.port);
      }
      std::vector<uint8_t> map(4 * static_cast<size_t>(world_));
      for (int r = 0; r < world_; ++r) {
        EncodeU32(ports[static_cast<size_t>(r)], map.data() + 4 * r);
      }
      for (int r = 1; r < world_; ++r) {
        CheckWiring(SendAll(ctrl_fds_[static_cast<size_t>(r)], map.data(), map.size(),
                            deadline, nullptr),
                    "send the port map");
      }
      // Ring-next link, then accept whatever arrives: the RING hello from
      // rank W-1 and (heartbeat on) one HB hello per rank, in any order.
      next_fd_ = ConnectRetry(ports[static_cast<size_t>(1 % world_)], 1 % world_,
                              rank_, deadline);
      SendHello(next_fd_, Hello{kHelloRing, 0, 0}, deadline);
      hb_fds_.assign(static_cast<size_t>(world_), -1);
      const int expect = 1 + (hb ? world_ - 1 : 0);
      for (int got = 0; got < expect; ++got) {
        const int fd = AcceptWithDeadline(listen_fd, deadline);
        const Hello h = RecvHello(fd, deadline);
        if (h.kind == kHelloRing) {
          EGERIA_CHECK_MSG(
              h.rank == static_cast<uint32_t>(world_ - 1) && prev_fd_ < 0,
              "ring hello from unexpected rank");
          prev_fd_ = fd;
        } else if (h.kind == kHelloHb && hb) {
          EGERIA_CHECK_MSG(h.rank > 0 && h.rank < static_cast<uint32_t>(world_) &&
                               hb_fds_[h.rank] < 0,
                           "heartbeat hello from unexpected rank");
          hb_fds_[h.rank] = fd;
        } else {
          EGERIA_CHECK_MSG(false,
                           "unexpected hello kind during ring wiring (heartbeat "
                           "setting mismatch across ranks?)");
        }
      }
    } else {
      const uint16_t root_port = PollRendezvousFile(options.rendezvous_file, deadline);
      ctrl_fd_ = ConnectRetry(root_port, 0, rank_, deadline);
      SendHello(ctrl_fd_, Hello{kHelloJoin, static_cast<uint32_t>(rank_), my_port},
                deadline);
      std::vector<uint8_t> map(4 * static_cast<size_t>(world_));
      CheckWiring(RecvAll(ctrl_fd_, map.data(), map.size(), deadline, nullptr),
                  "receive the port map");
      for (int r = 0; r < world_; ++r) {
        ports[static_cast<size_t>(r)] = static_cast<uint16_t>(DecodeU32(map.data() + 4 * r));
      }
      // Data ring: connect to next, accept from prev.
      const int next_rank = (rank_ + 1) % world_;
      next_fd_ = ConnectRetry(ports[static_cast<size_t>(next_rank)], next_rank,
                              rank_, deadline);
      SendHello(next_fd_, Hello{kHelloRing, static_cast<uint32_t>(rank_), 0}, deadline);
      prev_fd_ = AcceptWithDeadline(listen_fd, deadline);
      const Hello ring = RecvHello(prev_fd_, deadline);
      EGERIA_CHECK_MSG(ring.kind == kHelloRing &&
                           ring.rank == static_cast<uint32_t>((rank_ - 1 + world_) % world_),
                       "ring hello from unexpected rank");
      if (hb) {
        hb_fd_ = ConnectRetry(ports[0], 0, rank_, deadline);
        SendHello(hb_fd_, Hello{kHelloHb, static_cast<uint32_t>(rank_), 0}, deadline);
      }
    }
    close(listen_fd);
    if (hb) {
      hb_thread_ = std::thread([this] {
        if (rank_ == 0) {
          trace::SetThreadName("hb_monitor");
          HbMonitorLoop();
        } else {
          trace::SetThreadName("hb_sender");
          HbSenderLoop();
        }
      });
    }
  }

  ~TcpTransport() override {
    hb_stop_.store(true, std::memory_order_release);
    if (hb_thread_.joinable()) {
      hb_thread_.join();
    }
    for (int fd : {next_fd_, prev_fd_, ctrl_fd_, hb_fd_}) {
      if (fd >= 0) {
        close(fd);
      }
    }
    for (int fd : ctrl_fds_) {
      if (fd >= 0) {
        close(fd);
      }
    }
    for (int fd : hb_fds_) {
      if (fd >= 0) {
        close(fd);
      }
    }
  }

  int Rank() const override { return rank_; }
  int World() const override { return world_; }

  // One ring step as a single frame each way. The pump streams the payload
  // straight from/to the caller's buffers (no staging copies). The sender
  // digests its payload once before the pump starts; the receiver hashes
  // each chunk as it arrives, so its check needs no pass over the frame
  // afterwards. Both directions use scatter-gather syscalls
  // (sendmsg/readv) spanning header, payload and trailer: the 20 framing
  // bytes ride in the same syscalls as the payload, which matters more than
  // it sounds — a separate 8-byte trailer recv would cost the receiver an
  // extra poll() round-trip (on a busy host, a scheduler wakeup) per frame.
  // One poll loop pumps both directions, so a cycle of ranks all sending
  // large frames still drains because every rank also receives. Failure
  // typing: frame-size desync -> kSequence, wrong kind/sender -> kProtocol,
  // stale sequence number -> kSequence, digest mismatch -> kChecksum.
  TransportStatus RingExchange(const void* send_buf, int64_t send_bytes,
                               void* recv_buf, int64_t recv_bytes) override {
    EGERIA_CHECK(send_bytes >= 0 && recv_bytes >= 0);
    if (!StartCollective()) {
      return failed_;
    }
    const OpScope op(this);
    if (world_ == 1) {
      if (send_bytes != recv_bytes) {
        return Fail(TransportStatus::Error(
            TransportError::kSequence, "self-exchange size mismatch"));
      }
      std::memcpy(recv_buf, send_buf, static_cast<size_t>(send_bytes));
      return TransportStatus::Ok();
    }
    const Deadline deadline = IoDeadline();
    const int prev_rank = (rank_ - 1 + world_) % world_;
    const auto* sp = static_cast<const uint8_t*>(send_buf);
    auto* rp = static_cast<uint8_t*>(recv_buf);

    constexpr size_t kHdr = kFrameHeaderBytes;
    constexpr size_t kTrl = kFrameTrailerBytes;
    uint8_t send_hdr[kHdr];
    uint8_t recv_hdr[kHdr];
    uint8_t send_trl[kTrl];
    uint8_t recv_trl[kTrl];
    uint32_t send_seq = ring_send_seq_;
    // Fault drills (fault_injection.h) alter the outgoing frame after its
    // digest is fixed, so only the receiver's checks can catch them.
    std::vector<uint8_t> corrupted;
    if (faults_ != nullptr) {
      if (send_bytes > 0 && faults_->TakeArmed(FaultKind::kCorrupt)) {
        corrupted.assign(sp, sp + send_bytes);  // a copy, sent with one byte flipped
        corrupted[corrupted.size() / 2] ^= 0x40;
      } else if (send_bytes > 0 && faults_->TakeArmed(FaultKind::kTruncate)) {
        send_bytes /= 2;  // announce and send half the payload
      } else if (faults_->TakeArmed(FaultKind::kDup)) {
        send_seq = ring_send_seq_ - 1;  // replay the previous frame's number
      }
    }
    EncodeU32(static_cast<uint32_t>(send_bytes + kFrameOverheadBytes), send_hdr);
    EncodeU32(send_seq, send_hdr + 4);
    EncodeU16(kFrameKindRing, send_hdr + 8);
    EncodeU16(static_cast<uint16_t>(rank_), send_hdr + 10);
    EncodeU64(FrameDigest64(sp, static_cast<size_t>(send_bytes)), send_trl);
    if (!corrupted.empty()) {
      sp = corrupted.data();
    }

    FrameDigestStream recv_hash;
    size_t r_hashed = 0;  // payload bytes fed to recv_hash
    const size_t s_payload_end = kHdr + static_cast<size_t>(send_bytes);
    const size_t r_payload_end = kHdr + static_cast<size_t>(recv_bytes);
    const size_t s_total = s_payload_end + kTrl;
    const size_t r_total = r_payload_end + kTrl;
    size_t s_done = 0;
    size_t r_done = 0;
    bool r_hdr_checked = false;
    while (s_done < s_total || r_done < r_total) {
      if (AbortRequested()) {
        return Fail(AbortReason());
      }
      struct pollfd fds[2];
      int n = 0;
      int si = -1;
      int ri = -1;
      if (s_done < s_total) {
        fds[n] = {next_fd_, POLLOUT, 0};
        si = n++;
      }
      if (r_done < r_total) {
        fds[n] = {prev_fd_, POLLIN, 0};
        ri = n++;
      }
      const int rc = poll(fds, static_cast<nfds_t>(n),
                          std::min(RemainingMs(deadline), kAbortPollMs));
      if (rc < 0 && errno == EINTR) {
        continue;
      }
      if (rc < 0) {
        return Fail(TransportStatus::Error(TransportError::kIo,
                                           "poll failed in ring exchange"));
      }
      if (rc == 0) {
        if (Expired(deadline)) {
          return Fail(TimeoutStatus("ring exchange"));
        }
        continue;
      }
      if (si >= 0 && (fds[si].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
        struct iovec iov[3];
        int iovn = 0;
        if (s_done < kHdr) {
          iov[iovn++] = {send_hdr + s_done, kHdr - s_done};
        }
        if (s_done < s_payload_end && send_bytes > 0) {
          const size_t sent = s_done > kHdr ? s_done - kHdr : 0;
          iov[iovn++] = {const_cast<uint8_t*>(sp) + sent,
                         static_cast<size_t>(send_bytes) - sent};
        }
        const size_t t_off = s_done > s_payload_end ? s_done - s_payload_end : 0;
        iov[iovn++] = {send_trl + t_off, kTrl - t_off};
        struct msghdr msg = {};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<size_t>(iovn);
        const ssize_t w = ::sendmsg(next_fd_, &msg, MSG_NOSIGNAL);
        if (w > 0) {
          s_done += static_cast<size_t>(w);
        } else if (!(w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                               errno == EINTR))) {
          return Fail(PeerClosedStatus("ring link to rank", (rank_ + 1) % world_,
                                       "send"));
        }
      }
      if (ri >= 0 && (fds[ri].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        // Scatter-read the remainder of the frame — header, payload and
        // trailer fill in one syscall as the bytes arrive, never past the
        // frame boundary (the next frame's bytes stay in the kernel).
        struct iovec iov[3];
        int iovn = 0;
        if (r_done < kHdr) {
          iov[iovn++] = {recv_hdr + r_done, kHdr - r_done};
        }
        if (r_done < r_payload_end && recv_bytes > 0) {
          const size_t got = r_done > kHdr ? r_done - kHdr : 0;
          iov[iovn++] = {rp + got, static_cast<size_t>(recv_bytes) - got};
        }
        const size_t t_off = r_done > r_payload_end ? r_done - r_payload_end : 0;
        iov[iovn++] = {recv_trl + t_off, kTrl - t_off};
        const ssize_t r = ::readv(prev_fd_, iov, iovn);
        if (r > 0) {
          r_done += static_cast<size_t>(r);
        } else if (r == 0) {
          return Fail(PeerClosedStatus("ring link from rank", prev_rank,
                                       r_done > 0 && r_done < r_total
                                           ? "closed mid-frame"
                                           : "closed"));
        } else if (!(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
          return Fail(PeerClosedStatus("ring link from rank", prev_rank, "recv"));
        }
        if (!r_hdr_checked && r_done >= kHdr) {
          const uint32_t announced = DecodeU32(recv_hdr);
          if (announced !=
              static_cast<uint32_t>(recv_bytes + kFrameOverheadBytes)) {
            return Fail(TransportStatus::Error(
                TransportError::kSequence,
                "rank " + std::to_string(rank_) + ": ring frame size mismatch "
                    "from rank " + std::to_string(prev_rank) + " (announced " +
                    std::to_string(announced) + " frame bytes, expected " +
                    std::to_string(recv_bytes + kFrameOverheadBytes) +
                    "; truncated frame or schedule desync)"));
          }
          const uint16_t kind = DecodeU16(recv_hdr + 8);
          const uint16_t sender = DecodeU16(recv_hdr + 10);
          if (kind != kFrameKindRing ||
              sender != static_cast<uint16_t>(prev_rank)) {
            return Fail(TransportStatus::Error(
                TransportError::kProtocol,
                "rank " + std::to_string(rank_) + ": ring frame header invalid "
                    "(kind " + std::to_string(kind) + ", sender " +
                    std::to_string(sender) + ", expected ring frame from rank " +
                    std::to_string(prev_rank) + ")"));
          }
          const uint32_t seq = DecodeU32(recv_hdr + 4);
          if (seq != ring_recv_seq_) {
            return Fail(TransportStatus::Error(
                TransportError::kSequence,
                "rank " + std::to_string(rank_) + ": ring frame sequence "
                    "mismatch (got seq " + std::to_string(seq) + ", expected " +
                    std::to_string(ring_recv_seq_) +
                    "; duplicated, replayed or dropped frame)"));
          }
          r_hdr_checked = true;
        }
        const size_t got_payload =
            r_done > kHdr ? std::min(r_done, r_payload_end) - kHdr : 0;
        if (got_payload > r_hashed) {
          recv_hash.Update(rp + r_hashed, got_payload - r_hashed);
          r_hashed = got_payload;
        }
        if (r_done == r_total) {
          const uint64_t claimed = DecodeU64(recv_trl);
          const uint64_t actual = recv_hash.Finish();
          if (actual != claimed) {
            return Fail(TransportStatus::Error(
                TransportError::kChecksum,
                "rank " + std::to_string(rank_) + ": ring frame checksum "
                    "mismatch from rank " + std::to_string(prev_rank) +
                    " (claimed " + Hex64(claimed) + ", computed " +
                    Hex64(actual) + " over " + std::to_string(recv_bytes) +
                    " bytes, seq " + std::to_string(ring_recv_seq_) +
                    "; corrupted in transit)"));
          }
        }
      }
    }
    ++ring_send_seq_;
    ++ring_recv_seq_;
    return TransportStatus::Ok();
  }

  TransportStatus Barrier() override {
    if (!StartCollective()) {
      return failed_;
    }
    const OpScope op(this);
    if (world_ == 1) {
      return TransportStatus::Ok();
    }
    const Deadline deadline = IoDeadline();
    uint8_t token = 0;
    if (rank_ == 0) {
      for (int r = 1; r < world_; ++r) {
        const Io io = RecvAll(ctrl_fds_[static_cast<size_t>(r)], &token, 1, deadline,
                              &abort_flag_);
        if (io != Io::kOk) {
          return Fail(ControlStatus(io, "barrier", r));
        }
      }
      token = 1;
      for (int r = 1; r < world_; ++r) {
        const Io io = SendAll(ctrl_fds_[static_cast<size_t>(r)], &token, 1, deadline,
                              &abort_flag_);
        if (io != Io::kOk) {
          return Fail(ControlStatus(io, "barrier", r));
        }
      }
    } else {
      Io io = SendAll(ctrl_fd_, &token, 1, deadline, &abort_flag_);
      if (io == Io::kOk) {
        io = RecvAll(ctrl_fd_, &token, 1, deadline, &abort_flag_);
      }
      if (io != Io::kOk) {
        return Fail(ControlStatus(io, "barrier", 0));
      }
    }
    return TransportStatus::Ok();
  }

  // Broadcast frames travel over the control-plane star. Each receiver
  // digests the payload once it has arrived whole.
  TransportStatus Broadcast(const void* data, int64_t bytes,
                            std::vector<uint8_t>* out) override {
    if (!StartCollective()) {
      return failed_;
    }
    const OpScope op(this);
    if (world_ == 1) {
      const auto* p = static_cast<const uint8_t*>(data);
      out->assign(p, p + bytes);
      return TransportStatus::Ok();
    }
    const Deadline deadline = IoDeadline();
    const uint32_t seq = bcast_seq_;
    uint8_t hdr[kFrameHeaderBytes];
    uint8_t trl[kFrameTrailerBytes];
    if (rank_ == 0) {
      EGERIA_CHECK(bytes >= 0 && (bytes == 0 || data != nullptr));
      EncodeU32(static_cast<uint32_t>(bytes + kFrameOverheadBytes), hdr);
      EncodeU32(seq, hdr + 4);
      EncodeU16(kFrameKindBcast, hdr + 8);
      EncodeU16(0, hdr + 10);
      EncodeU64(FrameDigest64(data, static_cast<size_t>(bytes)), trl);
      // One contiguous frame, one send per peer: broadcasts carry the
      // per-iteration freeze-frontier control message, so an extra blocking
      // boundary per frame would cost every iteration a scheduler round-trip
      // on a contended host. The staging copy is cheap at control-message
      // sizes and happens once for the startup weights broadcast.
      std::vector<uint8_t> frame(sizeof(hdr) + static_cast<size_t>(bytes) +
                                 sizeof(trl));
      std::memcpy(frame.data(), hdr, sizeof(hdr));
      if (bytes > 0) {
        std::memcpy(frame.data() + sizeof(hdr), data,
                    static_cast<size_t>(bytes));
      }
      std::memcpy(frame.data() + sizeof(hdr) + static_cast<size_t>(bytes), trl,
                  sizeof(trl));
      for (int r = 1; r < world_; ++r) {
        const Io io = SendAll(ctrl_fds_[static_cast<size_t>(r)], frame.data(),
                              frame.size(), deadline, &abort_flag_);
        if (io != Io::kOk) {
          return Fail(ControlStatus(io, "broadcast", r));
        }
      }
      const auto* p = static_cast<const uint8_t*>(data);
      out->assign(p, p + bytes);
      ++bcast_seq_;
      return TransportStatus::Ok();
    }
    Io io = RecvAll(ctrl_fd_, hdr, sizeof(hdr), deadline, &abort_flag_);
    if (io != Io::kOk) {
      return Fail(ControlStatus(io, "broadcast", 0));
    }
    const uint32_t frame_len = DecodeU32(hdr);
    if (frame_len < static_cast<uint32_t>(kFrameOverheadBytes)) {
      return Fail(TransportStatus::Error(
          TransportError::kProtocol,
          "rank " + std::to_string(rank_) + ": broadcast frame short (" +
              std::to_string(frame_len) +
              " bytes, need 16 bytes of framing)"));
    }
    const uint16_t kind = DecodeU16(hdr + 8);
    const uint16_t sender = DecodeU16(hdr + 10);
    if (kind != kFrameKindBcast || sender != 0) {
      return Fail(TransportStatus::Error(
          TransportError::kProtocol,
          "rank " + std::to_string(rank_) + ": broadcast frame header invalid "
              "(kind " + std::to_string(kind) + ", sender " +
              std::to_string(sender) + ")"));
    }
    const uint32_t got_seq = DecodeU32(hdr + 4);
    if (got_seq != seq) {
      return Fail(TransportStatus::Error(
          TransportError::kSequence,
          "rank " + std::to_string(rank_) + ": broadcast sequence mismatch "
              "(got seq " + std::to_string(got_seq) + ", expected " +
              std::to_string(seq) + ")"));
    }
    // Payload and trailer in one blocking recv (they left rank 0 in one
    // send); a second boundary here would stall every per-iteration control
    // broadcast on another scheduler wakeup.
    const size_t payload =
        frame_len - static_cast<uint32_t>(kFrameOverheadBytes);
    std::vector<uint8_t> rest(payload + sizeof(trl));
    io = RecvAll(ctrl_fd_, rest.data(), rest.size(), deadline, &abort_flag_);
    if (io != Io::kOk) {
      return Fail(ControlStatus(io, "broadcast", 0));
    }
    out->assign(rest.begin(), rest.end() - static_cast<long>(sizeof(trl)));
    const uint64_t claimed = DecodeU64(rest.data() + payload);
    const uint64_t actual = FrameDigest64(out->data(), out->size());
    if (actual != claimed) {
      return Fail(TransportStatus::Error(
          TransportError::kChecksum,
          "rank " + std::to_string(rank_) + ": broadcast checksum mismatch "
              "(claimed " + Hex64(claimed) + ", computed " + Hex64(actual) +
              " over " + std::to_string(out->size()) + " bytes, seq " +
              std::to_string(got_seq) + "; corrupted in transit)"));
    }
    ++bcast_seq_;
    return TransportStatus::Ok();
  }

  void LocalAbort(const TransportStatus& reason) override {
    {
      std::lock_guard<std::mutex> lock(abort_mutex_);
      if (abort_reason_.ok()) {
        abort_reason_ = reason.ok()
                            ? TransportStatus::Error(TransportError::kAborted,
                                                     "transport aborted")
                            : reason;
      }
    }
    abort_flag_.store(true, std::memory_order_release);
  }

 private:
  // Collective-progress accounting for the failure detector: a rank "in" an
  // op has started > completed; a rank between ops has started == completed.
  struct OpScope {
    explicit OpScope(TcpTransport* t) : t_(t) {
      t_->ops_started_.fetch_add(1, std::memory_order_relaxed);
    }
    ~OpScope() { t_->ops_completed_.fetch_add(1, std::memory_order_relaxed); }
    TcpTransport* t_;
  };

  Deadline IoDeadline() const {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(io_timeout_s_));
  }

  bool AbortRequested() const {
    return abort_flag_.load(std::memory_order_acquire);
  }

  TransportStatus AbortReason() {
    std::lock_guard<std::mutex> lock(abort_mutex_);
    return abort_reason_.ok() ? TransportStatus::Error(TransportError::kAborted,
                                                       "transport aborted")
                              : abort_reason_;
  }

  // Every collective starts here and proceeds only while this returns true:
  // a failed endpoint keeps returning its first error (failed_), and an armed
  // delay or drop fault fires.
  bool StartCollective() {
    if (failed_.ok() && faults_ != nullptr) {
      TransportStatus st = faults_->FireAtCollectiveStart(rank_);
      if (!st.ok()) {
        Fail(std::move(st));
      }
    }
    return failed_.ok();
  }

  // First failure wins and permanently fails the endpoint.
  TransportStatus Fail(TransportStatus st) {
    if (failed_.ok()) {
      failed_ = st;
    }
    return st;
  }

  TransportStatus TimeoutStatus(const char* what) const {
    return TransportStatus::Error(
        TransportError::kTimeout,
        "rank " + std::to_string(rank_) + ": tcp " + what + " timed out after " +
            FmtSeconds(io_timeout_s_) + "s (peer rank dead or stuck?)");
  }

  TransportStatus PeerClosedStatus(const char* link, int peer, const std::string& how) const {
    return TransportStatus::Error(
        TransportError::kPeerClosed,
        "rank " + std::to_string(rank_) + ": tcp " + link + " " +
            std::to_string(peer) + " " + how + " (peer crashed or exited)");
  }

  // The typed status of a control-link transfer of collective `what` with
  // rank `peer` that ended in `io`.
  TransportStatus ControlStatus(Io io, const char* what, int peer) {
    switch (io) {
      case Io::kAborted:
        return AbortReason();
      case Io::kTimeout:
        return TimeoutStatus(what);
      case Io::kPollFailed:
        return TransportStatus::Error(TransportError::kIo,
                                      std::string("poll failed during ") + what);
      default:
        return PeerClosedStatus("control link to rank", peer,
                                std::string(io == Io::kClosed ? "closed" : "failed") +
                                    " during " + what);
    }
  }

  // ---- Heartbeat failure detector ----

  // One 13-byte record, bounded by 500 ms; false = link dead.
  static bool SendHbRecord(int fd, uint8_t type, uint32_t a, uint32_t b, uint32_t c) {
    uint8_t rec[kHbRecordBytes];
    EncodeHbRecord(type, a, b, c, rec);
    return SendAll(fd, rec, sizeof(rec), Clock::now() + std::chrono::milliseconds(500),
                   nullptr) == Io::kOk;
  }

  // Ranks 1..W-1: beat twice per interval carrying the progress counters;
  // watch the link for rank 0's ABORT; say BYE at clean teardown so the
  // monitor never mistakes completion for death.
  void HbSenderLoop() {
    const auto beat_period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(hb_interval_s_ / 2.0));
    auto next_beat = Clock::now();
    std::vector<uint8_t> inbuf;
    for (;;) {
      if (hb_stop_.load(std::memory_order_acquire)) {
        SendHbRecord(hb_fd_, kHbBye, 0, 0, 0);
        return;
      }
      if (Clock::now() >= next_beat) {
        const uint32_t started = ops_started_.load(std::memory_order_relaxed);
        const uint32_t completed = ops_completed_.load(std::memory_order_relaxed);
        trace::AddInstantF("transport", "hb_ping",
                           "{\"started\":%u,\"completed\":%u}", started,
                           completed);
        if (!SendHbRecord(hb_fd_, kHbPing, started, completed, 0)) {
          LocalAbort(TransportStatus::Error(
              TransportError::kPeerClosed,
              "rank " + std::to_string(rank_) +
                  ": heartbeat link to rank 0 lost (rank 0 died?)"));
          return;
        }
        next_beat = Clock::now() + beat_period;
      }
      struct pollfd p = {hb_fd_, POLLIN, 0};
      const auto until_beat = std::chrono::duration_cast<std::chrono::milliseconds>(
                                  next_beat - Clock::now())
                                  .count();
      poll(&p, 1, static_cast<int>(std::max<int64_t>(
                      1, std::min<int64_t>(kAbortPollMs, until_beat))));
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        uint8_t chunk[64];
        const ssize_t rc = ::recv(hb_fd_, chunk, sizeof(chunk), 0);
        if (rc > 0) {
          inbuf.insert(inbuf.end(), chunk, chunk + rc);
          while (inbuf.size() >= kHbRecordBytes) {
            if (inbuf[0] == kHbAbort) {
              LocalAbort(TransportStatus::Error(
                  TransportError::kAborted,
                  "rank " + std::to_string(rank_) +
                      ": world abort broadcast by rank 0's failure detector"));
              return;
            }
            inbuf.erase(inbuf.begin(),
                        inbuf.begin() + static_cast<long>(kHbRecordBytes));
          }
        } else if (rc == 0 || !(errno == EAGAIN || errno == EWOULDBLOCK ||
                                errno == EINTR)) {
          if (!hb_stop_.load(std::memory_order_acquire)) {
            LocalAbort(TransportStatus::Error(
                TransportError::kPeerClosed,
                "rank " + std::to_string(rank_) +
                    ": heartbeat link to rank 0 closed (rank 0 died?)"));
          }
          return;
        }
      }
    }
  }

  // Rank 0: the failure detector. Rules, checked every interval/4:
  //  - a heartbeat link that closes without BYE => the rank's process died;
  //  - no beat for > 2x interval => the whole process is wedged (SIGSTOP,
  //    scheduler death) since even the sender thread stopped;
  //  - a rank idle BETWEEN collectives (started == completed) whose counter
  //    has not moved for > 1x interval while some other rank has entered a
  //    later collective => the main thread is hung (the injected-hang case;
  //    rank 0 watches its own counters by the same rule, so a hung rank 0 is
  //    caught by its own monitor thread).
  // On detection: send ABORT on every live heartbeat link and LocalAbort, so
  // every survivor's in-flight collective returns kAborted within
  // kAbortPollMs — total detection-to-abort latency bounded by ~2x interval,
  // far under the io deadline.
  void HbMonitorLoop() {
    struct PeerState {
      std::vector<uint8_t> buf;
      uint32_t started = 0;
      uint32_t completed = 0;
      Clock::time_point last_beat;
      Clock::time_point started_changed;
      bool bye = false;
      bool closed = false;
    };
    const auto tick = std::chrono::milliseconds(std::max<int64_t>(
        10, static_cast<int64_t>(hb_interval_s_ * 1000.0 / 4.0)));
    const auto stale_after = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(hb_interval_s_ * 2.0));
    const auto hang_grace = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(hb_interval_s_));
    std::vector<PeerState> peers(static_cast<size_t>(world_));
    const auto t0 = Clock::now();
    for (auto& p : peers) {
      p.last_beat = t0;
      p.started_changed = t0;
    }
    auto abort_world = [&](const std::string& reason) {
      const TransportStatus st = TransportStatus::Error(
          TransportError::kAborted,
          "failure detector: " + reason + " — aborting world");
      EGERIA_LOG(kWarn) << st.message;
      trace::AddInstant("transport", "hb_abort_world");
      obs::GetCounter("transport.hb_aborts").Add(1);
      for (int r = 1; r < world_; ++r) {
        const int fd = hb_fds_[static_cast<size_t>(r)];
        if (fd >= 0 && !peers[static_cast<size_t>(r)].closed) {
          SendHbRecord(fd, kHbAbort, 0, 0, 0);
        }
      }
      LocalAbort(st);
    };

    while (!hb_stop_.load(std::memory_order_acquire)) {
      // Wait one tick, draining beats as they arrive.
      std::vector<struct pollfd> fds;
      std::vector<int> fd_rank;
      for (int r = 1; r < world_; ++r) {
        PeerState& p = peers[static_cast<size_t>(r)];
        if (!p.closed && !p.bye) {
          fds.push_back({hb_fds_[static_cast<size_t>(r)], POLLIN, 0});
          fd_rank.push_back(r);
        }
      }
      if (!fds.empty()) {
        poll(fds.data(), static_cast<nfds_t>(fds.size()),
             static_cast<int>(tick.count()));
      } else {
        std::this_thread::sleep_for(tick);
      }
      const auto now = Clock::now();
      for (size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
          continue;
        }
        PeerState& p = peers[static_cast<size_t>(fd_rank[i])];
        uint8_t chunk[256];
        const ssize_t rc = ::recv(fds[i].fd, chunk, sizeof(chunk), 0);
        if (rc > 0) {
          p.buf.insert(p.buf.end(), chunk, chunk + rc);
          while (p.buf.size() >= kHbRecordBytes) {
            const uint8_t type = p.buf[0];
            if (type == kHbPing) {
              const uint32_t started = DecodeU32(p.buf.data() + 1);
              p.completed = DecodeU32(p.buf.data() + 5);
              if (started != p.started) {
                p.started = started;
                p.started_changed = now;
              }
              p.last_beat = now;
            } else if (type == kHbBye) {
              p.bye = true;
            }
            p.buf.erase(p.buf.begin(),
                        p.buf.begin() + static_cast<long>(kHbRecordBytes));
          }
        } else if (rc == 0 || !(errno == EAGAIN || errno == EWOULDBLOCK ||
                                errno == EINTR)) {
          p.closed = true;
        }
      }
      // Rank 0's own progress, by the same rules.
      {
        PeerState& self = peers[0];
        const uint32_t started = ops_started_.load(std::memory_order_relaxed);
        self.completed = ops_completed_.load(std::memory_order_relaxed);
        if (started != self.started) {
          self.started = started;
          self.started_changed = now;
        }
        self.last_beat = now;
      }
      if (AbortRequested()) {
        return;
      }
      for (int r = 1; r < world_; ++r) {
        const PeerState& p = peers[static_cast<size_t>(r)];
        if (p.bye) {
          continue;
        }
        if (p.closed) {
          abort_world("rank " + std::to_string(r) +
                      "'s heartbeat link closed without BYE (process died)");
          return;
        }
        if (now - p.last_beat > stale_after) {
          abort_world("rank " + std::to_string(r) + " heartbeat stale (no beat for " +
                      FmtSeconds(2.0 * hb_interval_s_) + "s; process wedged?)");
          return;
        }
      }
      uint32_t max_started = 0;
      for (int r = 0; r < world_; ++r) {
        const PeerState& p = peers[static_cast<size_t>(r)];
        if (!p.bye && p.started > max_started) {
          max_started = p.started;
        }
      }
      for (int r = 0; r < world_; ++r) {
        const PeerState& p = peers[static_cast<size_t>(r)];
        if (p.bye || p.closed) {
          continue;
        }
        const bool idle = p.started == p.completed;
        const bool behind = p.started < max_started;
        if (idle && behind && now - p.started_changed > hang_grace) {
          abort_world("rank " + std::to_string(r) + " hung between collectives (no "
                      "progress for " + FmtSeconds(hb_interval_s_) +
                      "s at op " + std::to_string(p.started) + " while the world "
                      "reached op " + std::to_string(max_started) + ")");
          return;
        }
      }
    }
  }

  int rank_;
  int world_;
  double io_timeout_s_;
  double hb_interval_s_;
  FaultPlan* faults_;               // fault drills; null in production
  // Per-stream monotonic frame counters; every rank of a world advances them
  // in lockstep because collectives are world-synchronous.
  uint32_t ring_send_seq_ = 0;
  uint32_t ring_recv_seq_ = 0;
  uint32_t bcast_seq_ = 0;
  int next_fd_ = -1;                // ring link to (rank+1)%W
  int prev_fd_ = -1;                // ring link from (rank-1+W)%W
  int ctrl_fd_ = -1;                // non-root: control link to rank 0
  std::vector<int> ctrl_fds_;       // rank 0: control links, indexed by rank
  int hb_fd_ = -1;                  // non-root: heartbeat link to rank 0
  std::vector<int> hb_fds_;         // rank 0: heartbeat links, indexed by rank

  TransportStatus failed_;          // first collective failure, sticky

  std::atomic<bool> abort_flag_{false};
  std::mutex abort_mutex_;
  TransportStatus abort_reason_;

  std::atomic<uint32_t> ops_started_{0};
  std::atomic<uint32_t> ops_completed_{0};
  std::atomic<bool> hb_stop_{false};
  std::thread hb_thread_;
};

}  // namespace

std::unique_ptr<Transport> MakeTcpTransport(const TcpTransportOptions& options) {
  EGERIA_CHECK_MSG(options.frame_integrity,
                   "TcpTransportOptions::frame_integrity=false asks for the "
                   "unframed TCP wire path, which was removed: every TCP frame "
                   "carries a sequence number and a digest");
  return std::make_unique<TcpTransport>(options);
}

}  // namespace egeria
