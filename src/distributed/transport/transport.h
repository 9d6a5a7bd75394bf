// Byte-oriented transport abstraction for the ring collectives.
//
// A `Transport` is one rank's endpoint in a fixed world of `World()` ranks
// arranged in a ring. It exposes exactly the primitives the reduction-contract
// collectives need, and nothing about how bytes move:
//
//  - RingExchange: the ring step — send a buffer to rank (r+1)%W while
//    receiving one from rank (r-1+W)%W. Full-duplex by contract so a cycle of
//    blocking sends can never deadlock.
//  - Barrier: world-wide rendezvous (a star through rank 0).
//  - Broadcast: small control-plane message from rank 0 to every rank (freeze
//    frontier decisions, initial weight sync, reshard coordination).
//
// Every collective returns a TransportStatus (transport_status.h): a dead,
// hung, or corrupting peer surfaces as a typed error value that propagates up
// to the training loop, never as a process abort. After a non-ok return the
// endpoint is permanently failed — further collectives return an error too —
// so callers unwind once and exit cleanly. LocalAbort lets a layer above
// (the heartbeat failure detector, a rank leaving the world) fail the
// endpoint deliberately.
//
// One implementation, MakeTcpTransport (tcp_transport.h): ranks are OS
// processes (or threads of one process) connected over localhost TCP; every
// frame carries a sequence number and a digest, and deterministic fault drills
// (fault_injection.h) are injected inside its socket pump. Keeping the
// interface lets decorators wrap an endpoint (perfbench's traced transport).
//
// All payloads are raw bytes in host representation: endpoints must share an
// architecture (documented limitation; frame headers are little-endian on the
// wire so a mismatch fails loudly at hello time rather than corrupting data).
#ifndef EGERIA_SRC_DISTRIBUTED_TRANSPORT_TRANSPORT_H_
#define EGERIA_SRC_DISTRIBUTED_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "src/distributed/transport/transport_status.h"

namespace egeria {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int Rank() const = 0;
  virtual int World() const = 0;

  // One ring step: send `send_bytes` bytes to rank (Rank()+1)%World() while
  // receiving exactly `recv_bytes` bytes from rank (Rank()-1+W)%World().
  // Either side may be zero (empty contract chunks still exchange a frame so
  // the schedule stays in lockstep). Blocks until both directions complete or
  // the operation fails. Every rank of the world must call this collectively
  // with matching counts (receiver's recv_bytes == its predecessor's
  // send_bytes); a mismatch is a schedule desync and returns kSequence.
  virtual TransportStatus RingExchange(const void* send_buf, int64_t send_bytes,
                                       void* recv_buf, int64_t recv_bytes) = 0;

  // Blocks until every rank has entered the barrier (or the operation fails).
  virtual TransportStatus Barrier() = 0;

  // Control plane: rank 0's `bytes` bytes at `data` are delivered to every
  // rank; on success *out holds the message on all ranks (rank 0 included).
  // Non-root ranks' data/bytes arguments are ignored (pass nullptr, 0).
  // Collective.
  virtual TransportStatus Broadcast(const void* data, int64_t bytes,
                                    std::vector<uint8_t>* out) = 0;

  // Permanently fails this endpoint with `reason`: every in-flight and future
  // collective returns a non-ok status promptly instead of blocking until a
  // deadline. It fails only the local endpoint — peers observe the closed
  // sockets when this process/thread unwinds. Idempotent; the first reason
  // wins.
  virtual void LocalAbort(const TransportStatus& reason) = 0;
};

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_TRANSPORT_TRANSPORT_H_
