// Bounded request executor for the serve loop: a small worker pool fed
// by an explicitly bounded FIFO, giving the daemon real backpressure.
//
// Unlike support/parallel.h's ThreadPool (batch-oriented parallelFor,
// caller participates, no queue), serving needs individually submitted
// tasks with admission control: the protocol loop stays free to read,
// shed, and answer while compiles run, and a request that can't be
// admitted is rejected *now* (the loop answers BUSY within
// milliseconds) instead of queueing unboundedly.
//
// Admission rule: a task is admitted while fewer than
// `workers + maxQueue` tasks are outstanding (queued or running) —
// i.e. up to `workers` compiles in flight plus `maxQueue` waiting.
// trySubmit() returns false beyond that; the caller load-sheds.
//
// The destructor drains: queued tasks still run (their futures are
// awaited by the serve loop's final flush) and workers are joined.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sherlock::serve {

class RequestExecutor {
 public:
  /// `workers` <= 0 selects the SHERLOCK_THREADS / hardware default.
  RequestExecutor(int workers, size_t maxQueue);
  ~RequestExecutor();

  RequestExecutor(const RequestExecutor&) = delete;
  RequestExecutor& operator=(const RequestExecutor&) = delete;

  /// Enqueues `task` unless the admission bound is hit; false = shed
  /// (the task was not accepted and will never run). Tasks must not
  /// throw — report failures through their own channel.
  bool trySubmit(std::function<void()> task);

  /// Tasks waiting for a worker right now.
  size_t queueDepth() const;
  /// Tasks executing right now.
  size_t inflight() const;
  /// queueDepth + inflight.
  size_t outstanding() const;

 private:
  void workerLoop();

  mutable std::mutex mu_;
  std::condition_variable workReady_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t maxOutstanding_;
  size_t running_ = 0;
  bool shutdown_ = false;
};

}  // namespace sherlock::serve
