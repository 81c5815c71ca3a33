// Fixed-size thread pool with a chunked parallel_for helper, plus a
// process-wide shared pool (`global_pool()`).
//
// Used to run independent numeric work concurrently (the N-to-N pattern
// of Table IV, per-block preconditioner stages, per-row linear algebra).
// Work handed to parallel_for is split into contiguous chunks of at least
// `grain` indices -- one task per chunk, not one task per index -- so the
// queue never holds more than a few tasks per worker.
//
// Re-entrancy rule: a body running on a pool worker may call parallel_for
// on the same pool; the nested call detects this and runs inline
// (serially) instead of enqueuing, which would deadlock once every worker
// blocked waiting for tasks only they could run.
//
// On a single-core host everything degrades gracefully to inline serial
// execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rmp::parallel {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future reports completion/exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Run body(i) for i in [0, count), blocking until all complete.  Indices
  /// are grouped into contiguous chunks of at least `grain` (grain == 0
  /// picks one automatically) so at most a few tasks per worker are ever
  /// queued.  Any exception from a body is rethrown (first one wins); the
  /// pool stays usable afterwards.  Runs inline when the pool has a single
  /// worker, when only one chunk results, or when called from one of this
  /// pool's own workers (re-entrancy rule above).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

  /// Range flavour: body(begin, end) over disjoint chunks covering
  /// [0, count).  Same chunking/re-entrancy/exception semantics as
  /// parallel_for, without the per-index std::function call overhead.
  void parallel_for_ranges(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t grain = 0);

 private:
  void worker_loop();
  std::size_t chunk_size(std::size_t count, std::size_t grain) const;

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

/// Worker count for the shared pool: the RMP_THREADS environment variable
/// when set to a positive integer, otherwise hardware_concurrency (min 1).
std::size_t default_thread_count();

/// Lazily-initialized process-wide pool sized by default_thread_count().
/// Callers share it instead of paying thread spawn/join per call.
ThreadPool& global_pool();

/// parallel_for / parallel_for_ranges on the *active* pool: the pool
/// installed by ScopedPoolOverride when one is in scope, else global_pool().
/// These are what the numeric hot paths call.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 0);
void parallel_for_ranges(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain = 0);

/// Worker count of the active pool (override if installed, else the
/// global pool's size) -- callers can use it to pick serial cutoffs.
std::size_t active_thread_count();

/// RAII override routing the free-function helpers (and therefore every
/// library hot path) to a specific pool.  Intended for benchmarks and
/// tests that sweep worker counts; overrides are process-global and must
/// not be nested concurrently from different threads.
class ScopedPoolOverride {
 public:
  explicit ScopedPoolOverride(ThreadPool& pool);
  ~ScopedPoolOverride();

  ScopedPoolOverride(const ScopedPoolOverride&) = delete;
  ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace rmp::parallel
