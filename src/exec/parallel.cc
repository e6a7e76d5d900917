#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::exec {

namespace {

/// Shared claim state of one parallel region. Lives on the caller's stack;
/// the caller blocks until every helper has detached from it.
struct Region {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  const std::function<void(size_t)>* body = nullptr;

  std::atomic<size_t> next_chunk{0};

  std::mutex mutex;
  std::condition_variable done;
  size_t active_helpers = 0;

  /// Runs one chunk. Scheduling-jitter fault first: stalling this thread
  /// shifts the claim order of later chunks, which is exactly the
  /// perturbation determinism_test must be immune to — results may not
  /// change by a bit.
  void RunChunk(size_t chunk) const {
    fault::FaultDecision fault_decision = PPDP_FAULT_POINT("exec.chunk", fault::kMaskDelay);
    if (fault_decision.delay()) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(fault_decision.delay_ms));
    }
    const size_t chunk_begin = begin + chunk * grain;
    const size_t chunk_end = std::min(end, chunk_begin + grain);
    for (size_t i = chunk_begin; i < chunk_end; ++i) (*body)(i);
  }

  /// Claims and runs chunks until none remain.
  void Drain() {
    for (size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed); chunk < num_chunks;
         chunk = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      RunChunk(chunk);
    }
  }
};

// Set while this thread is inside a parallel region; nested regions run
// inline to keep pool workers from blocking on each other.
thread_local bool t_in_parallel_region = false;

}  // namespace

void ParallelFor(size_t begin, size_t end, size_t grain, const std::function<void(size_t)>& body,
                 const ExecConfig& config) {
  Status valid = config.Validate();
  PPDP_CHECK(valid.ok()) << valid.ToString();
  if (end <= begin) return;
  static obs::Counter& calls = obs::MetricsRegistry::Global().counter("exec.parallel_for.calls");
  calls.Increment();

  Region region;
  region.begin = begin;
  region.end = end;
  region.grain = grain == 0 ? 1 : grain;
  region.num_chunks = (end - begin + region.grain - 1) / region.grain;
  region.body = &body;

  const size_t width = config.threads == 0 ? ThreadPool::GlobalThreadTarget()
                                           : static_cast<size_t>(config.threads);
  // Serial fallback: --threads 1, a single chunk, or a nested region. Same
  // chunks (and fault points) as the parallel path, run in order.
  if (width <= 1 || region.num_chunks <= 1 || t_in_parallel_region) {
    for (size_t chunk = 0; chunk < region.num_chunks; ++chunk) region.RunChunk(chunk);
    return;
  }

  // The caller is one execution thread; enlist at most width - 1 helpers,
  // and never more than there are chunks to share.
  ThreadPool& pool = ThreadPool::Global();
  const size_t helpers = std::min({width - 1, pool.num_workers(), region.num_chunks - 1});
  {
    std::lock_guard<std::mutex> lock(region.mutex);
    region.active_helpers = helpers;
  }
  const uint32_t caller_span = obs::CurrentThreadSpanId();
  for (size_t h = 0; h < helpers; ++h) {
    pool.Submit([&region, caller_span] {
      {
        obs::SpanIdScope span(caller_span);
        t_in_parallel_region = true;
        region.Drain();
        t_in_parallel_region = false;
      }
      // Notify while still holding the mutex: the caller destroys Region
      // (it lives on its stack) the moment it observes active_helpers == 0,
      // and it can only re-acquire the mutex after this unlock — so the
      // condition variable is guaranteed to outlive the notify call.
      std::lock_guard<std::mutex> lock(region.mutex);
      --region.active_helpers;
      region.done.notify_one();
    });
  }

  t_in_parallel_region = true;
  region.Drain();
  t_in_parallel_region = false;
  std::unique_lock<std::mutex> lock(region.mutex);
  region.done.wait(lock, [&region] { return region.active_helpers == 0; });
}

}  // namespace ppdp::exec
