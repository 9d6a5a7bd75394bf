#include "src/distributed/allreduce.h"

#include <cstring>

#include "src/distributed/reduction_contract.h"
#include "src/distributed/transport/ring_schedule.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace egeria {

GradientAllReducer::GradientAllReducer(int world)
    : world_(world), barrier_(world) {
  EGERIA_CHECK(world_ >= 1);
  param_lists_.resize(static_cast<size_t>(world_), nullptr);
}

void GradientAllReducer::AllReduce(int rank, const std::vector<Parameter*>& params) {
  EGERIA_CHECK(rank >= 0 && rank < world_);
  if (world_ == 1) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    param_lists_[static_cast<size_t>(rank)] = &params;
  }
  barrier_.Wait();  // All ranks registered.
  if (rank == 0) {
    // Sequential reference implementation of the reduction contract: fold each
    // contract chunk in canonical ring order — (c+1)%W, (c+2)%W, ..., c — then
    // average in a separate elementwise pass and broadcast. Any transport that
    // honors the contract (the ring below) matches this bitwise.
    std::vector<FlatParamView> views;
    views.reserve(static_cast<size_t>(world_));
    for (int r = 0; r < world_; ++r) {
      const auto& list = *param_lists_[static_cast<size_t>(r)];
      EGERIA_CHECK_MSG(list.size() == param_lists_[0]->size(),
                       "rank param list mismatch");
      views.emplace_back(list, FlatParamView::Field::kGrad);
      EGERIA_CHECK(views.back().NumEl() == views[0].NumEl());
    }
    const int64_t total = views[0].NumEl();
    const float inv = 1.0F / static_cast<float>(world_);
    std::vector<float> buf(static_cast<size_t>(ChunkSpan(total, world_, 0).size()));
    for (int c = 0; c < world_; ++c) {
      const Span chunk = ChunkSpan(total, world_, c);
      if (chunk.size() == 0) {
        continue;
      }
      views[static_cast<size_t>(RingRank(c + 1, world_))].CopyOut(
          chunk.begin, chunk.end, buf.data());
      for (int k = 2; k <= world_; ++k) {
        views[static_cast<size_t>(RingRank(c + k, world_))].AddTo(
            chunk.begin, chunk.end, buf.data());
      }
      for (int64_t i = 0; i < chunk.size(); ++i) {
        buf[static_cast<size_t>(i)] *= inv;
      }
      for (int r = 0; r < world_; ++r) {
        views[static_cast<size_t>(r)].CopyIn(chunk.begin, chunk.end, buf.data());
      }
    }
    bytes_reduced_.fetch_add(total * static_cast<int64_t>(sizeof(float)));
  }
  barrier_.Wait();  // Averaged gradients visible to every rank.
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
  WallTimer timer;
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
  const TransportStatus st = RingCirculate(
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
  comm_seconds_ += timer.ElapsedSeconds();
  if (!st.ok()) {
    return st;
  }
  payload_bytes_ += total * static_cast<int64_t>(sizeof(float));
  return st;
}

TransportStatus RingAllReducer::AllGather(FlatParamView& view) {
  const int world = transport_.World();
  if (world == 1) {
    return TransportStatus::Ok();
  }
  WallTimer timer;
  trace::Span span("ring", "all_gather");
  const int64_t total = view.NumEl();
  if (span.active()) {
    span.SetArgs("{\"elems\":%lld}", static_cast<long long>(total));
  }

  // Rank r seeds the ring with its own chunk r; every step each rank forwards
  // the chunk it received last step, so after W-1 steps every rank has landed
  // every owner's (bit-exact, owner-computed-once) chunk.
  const TransportStatus st = RingCirculate(
      transport_, transport_.Rank(),
      [&](int c) { return ChunkSpan(total, world, c); },
      [&](float* buf, int, const Span& s) { view.CopyOut(s.begin, s.end, buf); },
      [&](const float* buf, int, const Span& s) { view.CopyIn(s.begin, s.end, buf); },
      &wire_bytes_);
  comm_seconds_ += timer.ElapsedSeconds();
  return st;
}

}  // namespace egeria
