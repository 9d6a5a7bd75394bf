#include "src/optim/sharded_optimizer.h"

#include <algorithm>
#include <cstring>

#include "src/distributed/reduction_contract.h"
#include "src/distributed/transport/ring_schedule.h"
#include "src/optim/optimizer.h"
#include "src/util/logging.h"

namespace egeria {

ShardedSgd::ShardedSgd(float momentum, float weight_decay)
    : momentum_(momentum), weight_decay_(weight_decay) {}

TransportStatus ShardedSgd::Reshard(Transport& transport, int64_t frozen_elems,
                                    int64_t active_elems,
                                    std::pair<int64_t, int64_t>* shard) {
  EGERIA_CHECK(frozen_elems >= 0 && active_elems >= 0);
  const int rank = transport.Rank();
  const int world = transport.World();
  const Span active_span = ChunkSpan(active_elems, world, rank);
  const int64_t gb = frozen_elems + active_span.begin;
  const int64_t ge = frozen_elems + active_span.end;

  std::vector<float> next(static_cast<size_t>(ge - gb), 0.0F);
  // Copy slices of an old shard [src_gb, src_ge) that overlap the new one.
  auto merge = [&](int64_t src_gb, int64_t src_ge, const float* vel) {
    const int64_t lo = std::max(gb, src_gb);
    const int64_t hi = std::min(ge, src_ge);
    if (hi > lo) {
      std::memcpy(next.data() + (lo - gb), vel + (lo - src_gb),
                  static_cast<size_t>(hi - lo) * sizeof(float));
    }
  };

  if (prev_active_ >= 0) {
    // Bounds of rank r's shard under the previous partition — every rank can
    // derive all of these locally, so migration frames need no metadata.
    auto old_span = [&](int r) {
      const Span s = ChunkSpan(prev_active_, world, r);
      return Span{prev_frozen_ + s.begin, prev_frozen_ + s.end};
    };
    merge(global_begin_, global_end_, velocity_.data());
    // All-gather of old shards: seed the ring with our own, forward what we
    // received last step; after W-1 steps every rank has seen every old shard
    // and kept the overlapping slices. On error, bail before mutating any
    // member: `next` is local, so the old partition stays intact.
    const TransportStatus st = RingCirculate(
        transport, rank, [&](int r) { return old_span(r); },
        [&](float* buf, int, const Span& s) {
          std::memcpy(buf, velocity_.data(),
                      static_cast<size_t>(s.size()) * sizeof(float));
        },
        [&](const float* buf, int, const Span& s) { merge(s.begin, s.end, buf); },
        nullptr);
    if (!st.ok()) {
      return st;
    }
  }

  velocity_ = std::move(next);
  global_begin_ = gb;
  global_end_ = ge;
  frozen_elems_ = frozen_elems;
  prev_frozen_ = frozen_elems;
  prev_active_ = active_elems;
  if (shard != nullptr) {
    *shard = {active_span.begin, active_span.end};
  }
  return TransportStatus::Ok();
}

void ShardedSgd::Step(FlatParamView& values, const FlatParamView& grads,
                      int64_t begin, int64_t end, float lr) {
  EGERIA_CHECK(frozen_elems_ + begin >= global_begin_ &&
               frozen_elems_ + end <= global_end_);
  // SgdUpdateRange* are the same compiled instances Sgd::Step runs, which is
  // what makes sharded and replicated updates bitwise-identical.
  if (momentum_ == 0.0F) {
    ForEachAlignedSegment(values, grads, begin, end,
                          [&](float* w, const float* g, int64_t off, int64_t n) {
                            (void)off;
                            SgdUpdateRangeNoMomentum(w, g, n, lr, weight_decay_);
                          });
    return;
  }
  ForEachAlignedSegment(
      values, grads, begin, end, [&](float* w, const float* g, int64_t off, int64_t n) {
        float* v = velocity_.data() + (frozen_elems_ + off - global_begin_);
        SgdUpdateRange(w, g, v, n, lr, momentum_, weight_decay_);
      });
}

int64_t ShardedSgd::StateBytes() const {
  return static_cast<int64_t>(velocity_.size()) * static_cast<int64_t>(sizeof(float));
}

std::pair<int64_t, int64_t> ShardedSgd::Restore(int rank, int world, int64_t frozen_elems,
                                                const std::vector<float>& active_velocity) {
  EGERIA_CHECK(frozen_elems >= 0);
  const auto active_elems = static_cast<int64_t>(active_velocity.size());
  const Span active_span = ChunkSpan(active_elems, world, rank);
  velocity_.assign(active_velocity.begin() + active_span.begin,
                   active_velocity.begin() + active_span.end);
  global_begin_ = frozen_elems + active_span.begin;
  global_end_ = frozen_elems + active_span.end;
  frozen_elems_ = frozen_elems;
  prev_frozen_ = frozen_elems;
  prev_active_ = active_elems;
  return {active_span.begin, active_span.end};
}

}  // namespace egeria
