// Gradient collectives for the data-parallel worker harness.
//
// Two implementations of the SAME reduction contract (reduction_contract.h):
//
//  - GradientAllReducer: the sequential reference. Rank 0 folds every chunk in
//    canonical ring order and broadcasts. Obviously correct, zero concurrency in
//    the arithmetic; tests pin the ring against it bitwise. In-process only
//    (ranks must be threads sharing the parameter lists).
//  - RingAllReducer: bandwidth-optimal ring reduce-scatter + all-gather over
//    `world` contract chunks, executed over a byte-oriented Transport
//    (transport/transport.h) — the same schedule runs unchanged whether the
//    TCP transport's ranks are threads of one process or OS processes.
//    Each link carries 2(W-1)/W of the payload instead of the star reducer's
//    2(W-1). Exposed as two halves so the ZeRO-1 sharded optimizer can run
//    between them: reduce-scatter(grads) -> owner applies the optimizer update
//    on its shard -> all-gather(params).
//
// Both count payload bytes so tests can assert that frozen stages drop out of
// synchronization (the Fig. 10 traffic saving); the ring additionally measures
// wall seconds spent inside collectives, which is what turns the paper's
// "frozen layers shrink network traffic" claim into a measured number once the
// transport is a real wire.
#ifndef EGERIA_SRC_DISTRIBUTED_ALLREDUCE_H_
#define EGERIA_SRC_DISTRIBUTED_ALLREDUCE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/distributed/flat_view.h"
#include "src/distributed/thread_barrier.h"
#include "src/distributed/transport/transport.h"
#include "src/nn/module.h"

namespace egeria {

class GradientAllReducer {
 public:
  explicit GradientAllReducer(int world);

  // Collective: blocks until all `world` ranks arrive; gradients are averaged
  // elementwise across ranks per the reduction contract. Parameter lists must
  // align across ranks.
  void AllReduce(int rank, const std::vector<Parameter*>& params);

  int64_t TotalBytesReduced() const { return bytes_reduced_.load(); }

 private:
  int world_;
  std::mutex mutex_;
  ThreadBarrier barrier_;
  std::vector<const std::vector<Parameter*>*> param_lists_;
  std::atomic<int64_t> bytes_reduced_{0};
};

// One rank's endpoint of the ring collectives. Construct one per rank over
// that rank's Transport; all counters are per-rank (sum across ranks for
// world totals).
class RingAllReducer {
 public:
  explicit RingAllReducer(Transport& transport);

  // Collective ring reduce-scatter + average. On ok, this rank's view holds
  // the contract-averaged result in chunk Rank() of the flat space; the other
  // chunks are left with whatever partial state the ring deposited (callers
  // own only their chunk until the matching AllGather). `owned` (nullable)
  // receives the owned flat range [begin, end). On a transport error the view
  // holds partial fold state and must not be consumed.
  TransportStatus ReduceScatterAverage(FlatParamView& view,
                                       std::pair<int64_t, int64_t>* owned);

  // Collective ring all-gather: circulates each owner's chunk so every rank's
  // view ends bitwise-identical on ok. The view may be a different field than
  // the reduce-scatter's (ZeRO-1 gathers updated parameter values, not
  // gradients) but must have the same flat size.
  TransportStatus AllGather(FlatParamView& view);

  // Logical payload: flat bytes per reduce-scatter call (comparable to
  // GradientAllReducer::TotalBytesReduced).
  int64_t TotalBytesReduced() const { return payload_bytes_; }
  // Bytes this rank pushed onto its ring link (both phases). Summed across the
  // world this is 2(W-1) x payload per full reduce-scatter + all-gather round,
  // i.e. 2(W-1)/W of the payload per link.
  int64_t TotalWireBytes() const { return wire_bytes_; }
  // Wall seconds this rank spent inside ring collectives (includes peer skew:
  // time blocked waiting for neighbors).
  double CommSeconds() const { return comm_seconds_; }

 private:
  Transport& transport_;
  int64_t payload_bytes_ = 0;
  int64_t wire_bytes_ = 0;
  double comm_seconds_ = 0.0;
};

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_ALLREDUCE_H_
