#include "support/parallel.h"

#include <cstdlib>
#include <exception>
#include <string>

namespace sherlock {

namespace {

// Set while a thread is executing parallelFor iterations; nested
// parallelFor calls observe it and degrade to serial inline execution.
thread_local bool tlsInParallelRegion = false;

// Restores the previous value on exit: a flattened nested call must not
// clear the flag of the region it runs in.
class ScopedParallelRegion {
 public:
  ScopedParallelRegion() : previous_(tlsInParallelRegion) {
    tlsInParallelRegion = true;
  }
  ~ScopedParallelRegion() { tlsInParallelRegion = previous_; }

 private:
  bool previous_;
};

}  // namespace

int ThreadPool::defaultThreads() {
  if (const char* env = std::getenv("SHERLOCK_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024)
      return static_cast<int>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = defaultThreads();
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  workReady_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::runIterations(Batch& batch) {
  ScopedParallelRegion region;
  for (;;) {
    int64_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.n) return;
    try {
      (*batch.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!batch.error) batch.error = std::current_exception();
      // Cancel iterations nobody claimed yet; in-flight ones finish.
      batch.next.store(batch.n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::workerLoop() {
  uint64_t seenGeneration = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    workReady_.wait(lk, [&] {
      return shutdown_ || generation_ != seenGeneration;
    });
    if (shutdown_) return;
    seenGeneration = generation_;
    Batch* batch = batch_;
    if (batch == nullptr) continue;  // batch already retired
    ++batch->active;
    lk.unlock();
    runIterations(*batch);
    lk.lock();
    if (--batch->active == 0) workDone_.notify_all();
  }
}

void ThreadPool::parallelFor(int64_t n,
                             const std::function<void(int64_t)>& body) {
  if (n <= 0) return;
  if (tlsInParallelRegion || workers_.empty() || n == 1) {
    // Flattened / serial execution on the calling thread. Exceptions
    // propagate directly.
    ScopedParallelRegion region;
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }

  Batch batch;
  batch.n = n;
  batch.body = &body;
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch_ = &batch;
    ++generation_;
  }
  workReady_.notify_all();

  runIterations(batch);  // the caller is one of the pool's lanes

  std::unique_lock<std::mutex> lk(mu_);
  // The index counter is exhausted (our runIterations returned), so the
  // batch is complete once every participating worker has left it.
  workDone_.wait(lk, [&] { return batch.active == 0; });
  batch_ = nullptr;
  lk.unlock();

  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace sherlock
