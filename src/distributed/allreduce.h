// Gradient collectives for the data-parallel worker harness.
//
// Two implementations of the SAME reduction contract (reduction_contract.h),
// both over a byte-oriented Transport (transport/transport.h), so they run
// unchanged whether the TCP transport's ranks are threads of one process or
// OS processes:
//
//  - StarAllReduce: the sequential reference. Every rank gathers every rank's
//    whole flat gradient around the ring, then folds each chunk in canonical
//    ring order with plain loops. Obviously correct, zero concurrency in the
//    arithmetic; tests pin the ring against it bitwise.
//  - RingAllReducer: bandwidth-optimal ring reduce-scatter + all-gather over
//    `world` contract chunks. Each link carries 2(W-1)/W of the payload
//    instead of the gather's (W-1). Exposed as two halves so the ZeRO-1
//    sharded optimizer can run between them: reduce-scatter(grads) -> owner
//    applies the optimizer update on its shard -> all-gather(params).
//
// The ring counts the bytes it pushes onto its link, so tests can assert
// that frozen stages drop out of synchronization (the Fig. 10 traffic
// saving). Its caller (RingSync) times the collectives.
#ifndef EGERIA_SRC_DISTRIBUTED_ALLREDUCE_H_
#define EGERIA_SRC_DISTRIBUTED_ALLREDUCE_H_

#include <cstdint>
#include <utility>

#include "src/distributed/flat_view.h"
#include "src/distributed/transport/transport.h"

namespace egeria {

// Collective: averages `grads` elementwise across the ranks of `transport`
// per the reduction contract. On ok every rank's view holds the same result,
// bit for bit; on a transport error the view is left as it was.
TransportStatus StarAllReduce(Transport& transport, FlatParamView& grads);

// One rank's endpoint of the ring collectives. Construct one per rank over
// that rank's Transport; its byte counter is per-rank (sum across ranks for
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

  // Bytes this rank pushed onto its ring link (both phases). Summed across the
  // world this is 2(W-1) x payload per full reduce-scatter + all-gather round,
  // i.e. 2(W-1)/W of the payload per link.
  int64_t TotalWireBytes() const { return wire_bytes_; }

 private:
  Transport& transport_;
  int64_t wire_bytes_ = 0;
};

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_ALLREDUCE_H_
