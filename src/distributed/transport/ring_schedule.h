// The one W-1-step ring circulation every collective in this repo runs on.
//
// At step s (s = 0..W-2), rank r sends the item of index (start - s) mod W to
// its ring successor while receiving the item of index (start - 1 - s) mod W
// from its predecessor; the payload forwarded at step s>0 is whatever the
// receive buffer holds after step s-1's `consume` (so a consume that folds
// in-place — the reduce-scatter — forwards the folded value, and a consume
// that only copies out — all-gather, shard migration — forwards verbatim).
//
// Reduce-scatter seeds with start = rank-1; all-gather, the star reference's
// gather of whole gradients and the reshard momentum migration with
// start = rank. The item-size schedule is any Span function all ranks agree
// on. Keeping the loop here means the index
// arithmetic and the step-(s-1)-recv == step-s-send size invariant live in
// exactly one place.
#ifndef EGERIA_SRC_DISTRIBUTED_TRANSPORT_RING_SCHEDULE_H_
#define EGERIA_SRC_DISTRIBUTED_TRANSPORT_RING_SCHEDULE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/distributed/reduction_contract.h"
#include "src/distributed/transport/transport.h"

namespace egeria {

// span_of(index) -> Span of item `index` (identical on every rank).
// seed(buf, index, span)    fills buf with this rank's local copy of the item.
// consume(buf, index, span) handles the received item; may mutate buf in
//                           place, which is what gets forwarded next step.
// `sent_bytes` (nullable) accumulates the bytes this rank pushed onto its
// ring link. A transport error stops the circulation immediately — no consume
// runs for the failed step — and propagates to the caller.
template <class SpanFn, class SeedFn, class ConsumeFn>
TransportStatus RingCirculate(Transport& transport, int start, SpanFn&& span_of,
                              SeedFn&& seed, ConsumeFn&& consume,
                              int64_t* sent_bytes) {
  const int world = transport.World();
  if (world == 1) {
    return TransportStatus::Ok();
  }
  int64_t max_elems = 0;
  for (int i = 0; i < world; ++i) {
    max_elems = std::max<int64_t>(max_elems, span_of(i).size());
  }
  std::vector<float> send_buf(static_cast<size_t>(max_elems));
  std::vector<float> recv_buf(static_cast<size_t>(max_elems));
  for (int s = 0; s <= world - 2; ++s) {
    const int i_send = RingRank(start - s, world);
    const int i_recv = RingRank(start - 1 - s, world);
    const Span c_send = span_of(i_send);
    const Span c_recv = span_of(i_recv);
    if (s == 0) {
      seed(send_buf.data(), i_send, c_send);
    } else if (c_send.size() > 0) {
      // Step s-1's receive was this very item (index start-s): forward it.
      std::memcpy(send_buf.data(), recv_buf.data(),
                  static_cast<size_t>(c_send.size()) * sizeof(float));
    }
    TransportStatus st = transport.RingExchange(
        send_buf.data(), c_send.bytes(), recv_buf.data(), c_recv.bytes());
    if (!st.ok()) {
      return st;
    }
    consume(recv_buf.data(), i_recv, c_recv);
    if (sent_bytes != nullptr) {
      *sent_bytes += c_send.bytes();
    }
  }
  return TransportStatus::Ok();
}

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_TRANSPORT_RING_SCHEDULE_H_
