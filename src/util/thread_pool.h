// Fixed-size thread pool behind the process-wide compute pool
// (src/tensor/compute_pool.h), which submits kernel row blocks to it.
// Deliberately simple: a mutex-protected task queue.
#ifndef EGERIA_SRC_UTIL_THREAD_POOL_H_
#define EGERIA_SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace egeria {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; the returned future resolves when it completes.
  std::future<void> Submit(std::function<void()> task);

  size_t NumThreads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace egeria

#endif  // EGERIA_SRC_UTIL_THREAD_POOL_H_
