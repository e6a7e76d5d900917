#ifndef PPDP_EXEC_THREAD_POOL_H_
#define PPDP_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/exec_config.h"

namespace ppdp::exec {

/// A fixed-size worker pool fed from one shared task queue. The library
/// keeps exactly one process-wide instance (Global()), started lazily the
/// first time a parallel region actually needs workers — binaries that stay
/// serial never spawn a thread.
///
/// The pool is an execution vehicle, not a determinism boundary: ParallelFor
/// partitions work by index so results do not depend on which worker runs
/// which chunk. Submitted tasks must not throw.
class ThreadPool {
 public:
  /// Starts `workers` threads (0 is allowed: a degenerate pool that never
  /// executes anything; callers run inline).
  explicit ThreadPool(size_t workers);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Joins all workers after draining the queue.
  ~ThreadPool();

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues a task for any idle worker.
  void Submit(std::function<void()> task);

  /// Live utilization of the pool — what /statusz reports. The counts are
  /// the registry's `exec.pool.*` metrics (the one tally /metrics exports),
  /// so submitted/executed are process-lifetime totals across resizes.
  struct PoolStats {
    size_t target_threads = 0;  ///< configured total width (workers + caller)
    size_t workers = 0;         ///< pool threads actually running
    size_t queue_depth = 0;     ///< tasks waiting for a worker
    size_t active = 0;          ///< tasks currently executing on workers
    uint64_t submitted = 0;     ///< tasks ever enqueued
    uint64_t executed = 0;      ///< tasks finished by workers
  };

  /// Stats of the global pool, taken under the same lock SetGlobalThreads
  /// holds while resizing — so a telemetry scrape can never read a pool
  /// that a concurrent resize is tearing down. Consistent enough for
  /// monitoring: queue_depth is read under the queue lock, the counts are
  /// relaxed reads of the registry metrics. A not-yet-started pool reports
  /// zero workers with the configured target.
  static PoolStats GlobalStats();

  /// The process-wide pool, created on first use with
  /// SetGlobalThreads()'s target (default: hardware concurrency). The
  /// returned reference stays valid until the next SetGlobalThreads call
  /// that changes the size.
  static ThreadPool& Global();

  /// Configures the global pool to `threads` total execution threads
  /// (0 = hardware concurrency; the pool itself runs threads - 1 workers
  /// because the calling thread always participates in parallel regions).
  /// Rejects negative counts. Must not race with in-flight parallel work;
  /// call it at startup or between parallel regions.
  static Status SetGlobalThreads(int threads);

  /// The configured total thread target of the global pool (resolved, >= 1).
  static size_t GlobalThreadTarget();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ppdp::exec

#endif  // PPDP_EXEC_THREAD_POOL_H_
