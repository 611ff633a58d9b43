// Small in-process parallelism primitives for embarrassingly parallel
// planning work: a fixed-size ThreadPool and a ParallelFor built on top of
// it. The Fleet facade uses these to probe and plan independent models
// concurrently (DESIGN.md Sec. 7); nothing here knows about planning.
//
// Tasks must do their own error handling through Status-shaped results;
// an exception escaping a task is captured and rethrown to the caller of
// ThreadPool::Wait() / ParallelFor() (first one wins, the rest are
// swallowed), so worker threads never terminate the process.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kairos {

/// Resolves a requested thread count: 0 means "hardware concurrency",
/// and the result is clamped to [1, jobs] so tiny workloads never spawn
/// idle workers.
std::size_t ParallelismFor(std::size_t requested, std::size_t jobs);

/// A fixed set of worker threads draining one FIFO task queue. Workers
/// start in the constructor and join in the destructor; Submit() after
/// destruction begins is undefined. The pool itself is not copyable.
class ThreadPool {
 public:
  /// Spawns `threads` workers (0 resolves to hardware concurrency).
  explicit ThreadPool(std::size_t threads);

  /// Drains remaining tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task raised (if one did).
  void Wait();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_ready_;   ///< signals workers
  std::condition_variable all_done_;     ///< signals Wait()
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;            ///< queued + running tasks
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

/// Runs fn(0) ... fn(n-1) across up to `threads` workers (0 = hardware
/// concurrency) and returns when all calls finished. Iterations must be
/// independent; writes to shared state need the caller's own
/// synchronization (the common pattern — each iteration writing slot i of
/// a pre-sized vector — needs none). Rethrows the first exception.
void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

/// The pool-reusing form: identical semantics, but the workers come from
/// `pool` instead of a pool spawned per call. Barrier-style drivers —
/// Fleet::ServeAll advancing its shards once per window, the inference
/// kernels once per layer — call this many times per run and must not
/// pay thread spawn each time. The caller must own the
/// pool exclusively for the duration of the call: Wait() returns only
/// when *all* work submitted to the pool has finished.
void ParallelFor(ThreadPool& pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace kairos
