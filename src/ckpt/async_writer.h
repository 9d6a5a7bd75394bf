// Background checkpoint writer: takes snapshot-write jobs off the training
// hot path, so a save's file writes run behind the next iteration's compute.
//
// Protocol (the Trainer's deferred-commit save, at every world size; only
// rank 0 writes, and its Trainer creates a writer only when checkpointing is
// on):
//   1. At a checkpoint boundary rank 0 CAPTURES the world's state in memory —
//      GradientSync::CaptureState gathers every rank's buffers and momentum
//      shard and clones the weights and optimizer state — so the live model
//      may keep training immediately.
//   2. The captured snapshot is Submit()ted; this thread serializes it to the
//      step directory while the next iteration computes (the double buffer:
//      live state in the model, frozen state in the job).
//   3. At the NEXT collective boundary every rank meets at a barrier, and
//      only then does rank 0 Wait() for the write, hash the files into a
//      manifest and commit. A crash in between leaves the step
//      manifest-less — invisible to resume — exactly like the synchronous
//      path's abort-before-commit guarantee.
//
// One job may be in flight at a time; Submit blocks until the previous job
// drained (with per-iteration commits this never actually blocks). The
// destructor drains the queue, so a thrown-away writer cannot leave a torn
// file growing in the background.
#ifndef EGERIA_SRC_CKPT_ASYNC_WRITER_H_
#define EGERIA_SRC_CKPT_ASYNC_WRITER_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace egeria {

class AsyncCheckpointWriter {
 public:
  AsyncCheckpointWriter();
  ~AsyncCheckpointWriter();

  AsyncCheckpointWriter(const AsyncCheckpointWriter&) = delete;
  AsyncCheckpointWriter& operator=(const AsyncCheckpointWriter&) = delete;

  // Hands `write` to the background thread. `write` owns its captured
  // snapshot and returns whether every file landed intact. Blocks only if a
  // previous job is still writing.
  void Submit(std::function<bool()> write);

  // Blocks until no job is pending or running; returns the most recent job's
  // result (true when no job ever ran).
  bool Wait();

 private:
  void Run();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::function<bool()> pending_;  // empty = no job queued
  bool running_ = false;
  bool last_ok_ = true;
  bool shutdown_ = false;
  std::thread thread_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_CKPT_ASYNC_WRITER_H_
