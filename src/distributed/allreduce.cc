#include "src/distributed/allreduce.h"

#include <algorithm>
#include <vector>

#include "src/distributed/reduction_contract.h"
#include "src/distributed/transport/ring_schedule.h"
#include "src/obs/trace.h"

namespace egeria {

TransportStatus StarAllReduce(Transport& transport, FlatParamView& grads) {
  const int world = transport.World();
  if (world == 1) {
    return TransportStatus::Ok();
  }
  // Gather: row r of `all` ends holding rank r's whole flat gradient.
  const int64_t total = grads.NumEl();
  std::vector<float> all(static_cast<size_t>(world * total));
  auto row = [&](int r) { return all.data() + static_cast<size_t>(r * total); };
  grads.CopyOut(0, total, row(transport.Rank()));
  const TransportStatus st = RingCirculate(
      transport, transport.Rank(), [&](int) { return Span{0, total}; },
      [&](float* buf, int r, const Span& s) { std::copy_n(row(r), s.size(), buf); },
      [&](const float* buf, int r, const Span& s) { std::copy_n(buf, s.size(), row(r)); },
      nullptr);
  if (!st.ok()) {
    return st;
  }
  // Fold each contract chunk in canonical ring order — (c+1)%W, (c+2)%W, ...,
  // c — then average in a separate elementwise pass.
  const float inv = 1.0F / static_cast<float>(world);
  std::vector<float> buf(static_cast<size_t>(ChunkSpan(total, world, 0).size()));
  for (int c = 0; c < world; ++c) {
    const Span chunk = ChunkSpan(total, world, c);
    std::copy_n(row(RingRank(c + 1, world)) + chunk.begin, chunk.size(), buf.data());
    for (int k = 2; k <= world; ++k) {
      const float* g = row(RingRank(c + k, world)) + chunk.begin;
      for (int64_t i = 0; i < chunk.size(); ++i) {
        buf[static_cast<size_t>(i)] += g[i];
      }
    }
    for (int64_t i = 0; i < chunk.size(); ++i) {
      buf[static_cast<size_t>(i)] *= inv;
    }
    grads.CopyIn(chunk.begin, chunk.end, buf.data());
  }
  return st;
}

RingAllReducer::RingAllReducer(Transport& transport) : transport_(transport) {}

TransportStatus RingAllReducer::ReduceScatterAverage(
    FlatParamView& view, std::pair<int64_t, int64_t>* owned) {
  const int rank = transport_.Rank();
  const int world = transport_.World();
  const int64_t total = view.NumEl();
  if (owned != nullptr) {
    const Span own = ChunkSpan(total, world, rank);
    *owned = {own.begin, own.end};
  }
  if (world == 1) {
    return TransportStatus::Ok();
  }
  trace::Span span("ring", "reduce_scatter");
  if (span.active()) {
    span.SetArgs("{\"elems\":%lld}", static_cast<long long>(total));
  }

  // Chunk c's partial sum enters the ring at rank (c+1)%W (initial value: that
  // rank's local chunk) and travels one hop per step, each visited rank folding
  // in its own local chunk; after W-1 hops the fully-folded chunk sits at its
  // owner, rank c. For rank r that schedule is a circulation starting at chunk
  // r-1, whose final receive is r's own chunk r; the in-place fold in `consume`
  // is what the circulation forwards.
  return RingCirculate(
      transport_, rank - 1,
      [&](int c) { return ChunkSpan(total, world, c); },
      [&](float* buf, int, const Span& s) { view.CopyOut(s.begin, s.end, buf); },
      [&](float* buf, int c, const Span& s) {
        // Ring-order fold step: incoming partial sum (left operand, preserved
        // per element) += this rank's local chunk.
        view.AddTo(s.begin, s.end, buf);
        if (c == rank) {
          // Final step: buf holds the contract fold for our own chunk. Average
          // in a separate pass (never fused into the adds) and land it.
          const float inv = 1.0F / static_cast<float>(world);
          for (int64_t i = 0; i < s.size(); ++i) {
            buf[static_cast<size_t>(i)] *= inv;
          }
          view.CopyIn(s.begin, s.end, buf);
        }
      },
      &wire_bytes_);
}

TransportStatus RingAllReducer::AllGather(FlatParamView& view) {
  const int world = transport_.World();
  if (world == 1) {
    return TransportStatus::Ok();
  }
  trace::Span span("ring", "all_gather");
  const int64_t total = view.NumEl();
  if (span.active()) {
    span.SetArgs("{\"elems\":%lld}", static_cast<long long>(total));
  }

  // Rank r seeds the ring with its own chunk r; every step each rank forwards
  // the chunk it received last step, so after W-1 steps every rank has landed
  // every owner's (bit-exact, owner-computed-once) chunk.
  return RingCirculate(
      transport_, transport_.Rank(),
      [&](int c) { return ChunkSpan(total, world, c); },
      [&](float* buf, int, const Span& s) { view.CopyOut(s.begin, s.end, buf); },
      [&](const float* buf, int, const Span& s) { view.CopyIn(s.begin, s.end, buf); },
      &wire_bytes_);
}

}  // namespace egeria
