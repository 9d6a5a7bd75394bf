// Reusable generation-counting barrier for the sequential reference reducer
// (GradientAllReducer), whose ranks are threads of one process.
// The generation counter (not a bool flip) makes back-to-back barriers safe: a
// thread that races ahead into the next Wait cannot consume the previous
// generation's release.
#ifndef EGERIA_SRC_DISTRIBUTED_THREAD_BARRIER_H_
#define EGERIA_SRC_DISTRIBUTED_THREAD_BARRIER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace egeria {

class ThreadBarrier {
 public:
  explicit ThreadBarrier(int parties) : parties_(parties) {}

  // Blocks until `parties` threads have called Wait for this generation.
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const int64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
  }

 private:
  int parties_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  int64_t generation_ = 0;
};

}  // namespace egeria

#endif  // EGERIA_SRC_DISTRIBUTED_THREAD_BARRIER_H_
