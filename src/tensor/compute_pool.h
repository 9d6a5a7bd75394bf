// Process-wide compute thread pool for data-parallel kernel loops.
//
// The pool is created lazily on first use and sized by EGERIA_NUM_THREADS (default:
// hardware concurrency). It carries fine-grained kernel row blocks only; no
// application task shares it, so none can block a kernel chunk behind it.
#ifndef EGERIA_SRC_TENSOR_COMPUTE_POOL_H_
#define EGERIA_SRC_TENSOR_COMPUTE_POOL_H_

#include <cstdint>
#include <functional>

namespace egeria {

// Number of threads the compute pool runs with (>= 1). Reads EGERIA_NUM_THREADS
// once on first call.
int ComputePoolThreads();

// Runs fn(begin, end) over a partition of [0, n), in parallel when the pool has
// more than one thread and the caller is not already inside a pool task (nested
// calls degrade to serial execution instead of deadlocking the pool).
//
// `grain` is the smallest chunk worth shipping to another thread; ranges are
// split into at most one chunk per thread and never smaller than `grain`.
// Chunks are disjoint, so writes to per-index data need no synchronization.
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace egeria

#endif  // EGERIA_SRC_TENSOR_COMPUTE_POOL_H_
