// TCP socket Transport: each rank may live in its own OS process.
//
// Rendezvous (no fixed ports, so parallel CI jobs never collide):
//   1. Every rank binds a listener on 127.0.0.1 port 0 (kernel-chosen
//      ephemeral port).
//   2. Rank 0 publishes its listener port by atomically writing
//      "host port\n" to `rendezvous_file` (tmp + rename).
//   3. Ranks 1..W-1 poll the file, then connect-retry to rank 0 and send a
//      JOIN hello carrying their own listener port. These W-1 sockets persist
//      as the control plane (Barrier / Broadcast, star through rank 0).
//   4. Rank 0 replies to every joined rank with the full rank->port map.
//   5. Each rank connects to ring-next's listener (RING hello) and accepts
//      one connection from ring-prev, completing the data ring.
//   6. With the heartbeat enabled, each rank additionally connects a
//      dedicated HB link to rank 0 (HB hello) for the failure detector.
//
// Wire format: every ring and broadcast message is one frame,
//
//   [u32 frame_len][u32 seq][u16 kind][u16 src]  payload  [u64 digest]
//
// little-endian, where frame_len counts every byte after itself, seq is a
// per-stream counter every rank advances in lockstep (ring and broadcast
// streams count separately), kind and src pin the frame to its stream and
// sender, and digest is FrameDigest64 of the payload (frame_digest.h). This
// is the only TCP wire format. RingExchange pumps its send (to next) and recv
// (from prev) sockets in one poll loop, so the full-duplex contract holds
// even when both directions exceed kernel socket buffers. The sender digests
// its payload once before the pump starts and the receiver hashes each chunk
// as it arrives, so checksumming adds no staging copy and no extra blocking
// boundary. Wiring, the control-plane collectives and the heartbeat share one
// bounded send/recv loop. TCP_NODELAY is set on all links (collective steps
// are latency-bound small frames).
//
// Failure model (see src/distributed/README.md "Failure model"): every
// steady-state collective returns a TransportStatus instead of aborting. A
// closed link is kPeerClosed, an expired per-collective deadline is kTimeout,
// a frame-size desync or stale sequence number is kSequence, a wrong frame
// kind or sender is kProtocol, and a digest mismatch is kChecksum. With
// heartbeat_interval_s > 0, rank 0 runs a failure detector over the HB links:
// every rank beats twice per interval carrying its collective-progress
// counters, so a rank that stops making progress between collectives (wedged
// process, SIGSTOP, test-injected hang) is detected within ~2x the interval —
// far sooner than the coarse io_timeout_s deadline — and rank 0 broadcasts
// ABORT so every survivor's in-flight collective returns kAborted promptly and
// the world exits through the clean (no torn checkpoint) path.
// Construction-time wiring failures remain fatal CHECKs: there is nothing to
// recover yet.
#ifndef EGERIA_SRC_DISTRIBUTED_TRANSPORT_TCP_TRANSPORT_H_
#define EGERIA_SRC_DISTRIBUTED_TRANSPORT_TCP_TRANSPORT_H_

#include <memory>
#include <string>

#include "src/distributed/transport/transport.h"

namespace egeria {

struct FaultPlan;

struct TcpTransportOptions {
  int rank = 0;
  int world = 1;
  // File through which rank 0 publishes its ephemeral rendezvous port. Must
  // name a writable location shared by all ranks (same machine) and not exist
  // with stale contents (the launcher places it in a fresh temp dir).
  std::string rendezvous_file;
  // Deadline for the whole rendezvous + ring wiring phase.
  double connect_timeout_s = 30.0;
  // Per-collective deadline.
  double io_timeout_s = 120.0;
  // Heartbeat failure detector period; 0 disables (default — in-process
  // harnesses and benches don't want extra threads). Every rank of a world
  // MUST agree on whether the heartbeat is enabled: the setting changes the
  // wiring handshake.
  // egeria_worker enables it by default (--hb-interval).
  double heartbeat_interval_s = 0.0;
  // Fault drills (test-only; fault_injection.h). The plan's armed corrupt,
  // truncate and dup events alter the next ring frame after its digest is
  // fixed; armed delay and drop events fire as a collective starts. The
  // caller arms the plan (FaultPlan::BeginIteration) and keeps it alive as
  // long as the transport. Null in production.
  FaultPlan* faults = nullptr;
  // Must stay true: every TCP message is a checksummed frame, and
  // MakeTcpTransport rejects false. Kept only because existing callers assign
  // it.
  bool frame_integrity = true;
};

// Blocks until the full world is wired (all ranks must construct their
// endpoints concurrently). Aborts with a diagnostic on wiring timeout.
std::unique_ptr<Transport> MakeTcpTransport(const TcpTransportOptions& options);

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_TRANSPORT_TCP_TRANSPORT_H_
