// Deterministic fault injection for the distributed runtime.
//
// A FaultPlan is a declarative, fully deterministic fault schedule — no RNG at
// injection time, so a failing chaos seed replays bit-for-bit. Plans come
// from either an explicit spec ("corrupt:6,delay:9") or a seed
// ("seed:17"), which expands through a splitmix64 chain into one fault at a
// derived (kind, target rank, iteration).
//
// Kinds:
//   corrupt   flip one payload byte of the next ring frame that carries
//             payload, after its digest was computed -> receiver reports
//             kChecksum
//   truncate  announce and send half the payload of the next ring frame that
//             carries payload -> receiver reports kSequence (size desync)
//   dup       stamp the next ring frame with the previous frame's sequence
//             number -> receiver reports kSequence (stale sequence number)
//   delay     sleep ~400ms as the next collective starts — transient; the run
//             must still complete (exercises the hang detector's grace)
//   drop      fail the local endpoint as the next collective starts, as if
//             the connection dropped -> this rank sees kPeerClosed, peers see
//             closed sockets
//   hang      process-level: the worker's iteration hook blocks forever
//             (exercises the heartbeat failure detector)
//   exit      process-level: the worker exits(3) mid-training
//             (exercises crash recovery)
//
// Transport-level faults arm at BeginIteration(i) (the worker's iteration
// hook) and fire inside the TCP transport that holds the plan
// (TcpTransportOptions::faults): corrupt/truncate/dup inside the framed ring
// pump, on the same wire path every world ships with, and delay/drop as any
// collective starts. Broadcast frames are never altered (broadcast is
// root-asymmetric). hang/exit are executed by the worker process itself.
//
// A plan is armed and consumed by one rank. The hook runs on the rank's
// training thread between collectives; the transport takes armed events
// inside collectives, which the same thread runs after the hook. So the plan
// needs no lock of its own.
#ifndef EGERIA_SRC_DISTRIBUTED_TRANSPORT_FAULT_INJECTION_H_
#define EGERIA_SRC_DISTRIBUTED_TRANSPORT_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/distributed/transport/transport_status.h"

namespace egeria {

enum class FaultKind : int {
  kCorrupt,
  kTruncate,
  kDelay,
  kDrop,
  kDup,
  kHang,
  kExit,
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kDelay;
  // Training iteration (1-based) at which the fault arms. For hang/exit,
  // iter <= 0 means "before the transport is even wired" (worker-level).
  int64_t iter = 0;
  int delay_ms = 400;  // kDelay only; must stay under the hang-detector grace
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  // Arms every transport-level event scheduled for training iteration `iter`
  // (hang/exit are the worker's to execute and never arm).
  void BeginIteration(int64_t iter);

  // Called as a collective starts: sleeps through one armed delay, and
  // returns the kPeerClosed status `rank`'s endpoint must fail with when a
  // drop is armed (ok otherwise). Fired events are disarmed.
  TransportStatus FireAtCollectiveStart(int rank);

  // Disarms one armed event of `kind`; false when none is armed.
  bool TakeArmed(FaultKind kind);

  // Parses a worker --fault spec: comma-separated `kind:iter` entries with
  // kinds hang/exit/corrupt/truncate/delay/drop/dup, or a single `seed:S`
  // entry expanded via FromSeed (hence world/rank). An entry may carry a rank
  // qualifier — `kind@R:iter` — in which case it produces an event only when
  // R == rank; launchers that pass one identical spec to every rank can thus
  // fault a single rank (the straggler drills in scripts/check.sh do this).
  // Unknown kinds, malformed or out-of-range numbers, and out-of-range rank
  // qualifiers are rejected with a message listing the valid forms — never
  // silently ignored.
  static bool Parse(const std::string& spec, int world, int rank,
                    FaultPlan* out, std::string* error);

  // Deterministically derives one fault from `seed`: a kind from
  // {corrupt, truncate, delay, drop, hang, exit}, a target rank, and an
  // iteration in [2, 11]. Every rank calls this with the same seed; only the
  // derived target rank receives a non-empty plan, so one seed fully
  // describes a world-wide chaos scenario.
  static FaultPlan FromSeed(uint64_t seed, int world, int rank);

 private:
  std::vector<FaultEvent> armed_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_TRANSPORT_FAULT_INJECTION_H_
