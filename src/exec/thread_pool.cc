#include "exec/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry_server.h"

namespace ppdp::exec {

namespace {

/// Contributes the live pool view to /statusz. Registered at static-init
/// of this translation unit, which is linked into any binary that touches
/// the pool — obs itself never has to know exec exists.
const bool kStatuszRegistered = [] {
  obs::RegisterStatuszSection("thread_pool", [] {
    ThreadPool::PoolStats stats = ThreadPool::GlobalStats();
    JsonValue section = JsonValue::Object();
    section.Set("target_threads", JsonValue::Number(static_cast<double>(stats.target_threads)));
    section.Set("workers", JsonValue::Number(static_cast<double>(stats.workers)));
    section.Set("queue_depth", JsonValue::Number(static_cast<double>(stats.queue_depth)));
    section.Set("active", JsonValue::Number(static_cast<double>(stats.active)));
    section.Set("submitted", JsonValue::Number(static_cast<double>(stats.submitted)));
    section.Set("executed", JsonValue::Number(static_cast<double>(stats.executed)));
    return section;
  });
  return true;
}();

/// The pool's one tally: what /metrics exports and GlobalStats reads.
struct PoolMetrics {
  obs::Counter& submitted = obs::MetricsRegistry::Global().counter("exec.pool.submitted");
  obs::Counter& executed = obs::MetricsRegistry::Global().counter("exec.pool.tasks");
  obs::Gauge& active = obs::MetricsRegistry::Global().gauge("exec.pool.active_workers");
  obs::Gauge& queue_depth = obs::MetricsRegistry::Global().gauge("exec.pool.queue_depth");
};
PoolMetrics& Metrics() {
  static PoolMetrics metrics;
  return metrics;
}

std::mutex& GlobalMutex() {
  static std::mutex mutex;
  return mutex;
}

// Guarded by GlobalMutex().
std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

int& GlobalTarget() {
  static int target = 0;  // 0 = hardware concurrency
  return target;
}

size_t ResolveTarget(int target) { return ExecConfig{target}.ResolvedThreads(); }

}  // namespace

ThreadPool::ThreadPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    // Counted under the queue lock, so the worker that pops the task (under
    // the same lock) counts its execution after its submission.
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    Metrics().queue_depth.Set(static_cast<double>(queue_.size()));
    Metrics().submitted.Increment();
  }
  wake_.notify_one();
}

void ThreadPool::WorkerLoop() {
  // Workers register with the sampling profiler for their whole lifetime so
  // parallel regions are profiled; free when no capture is running.
  obs::ProfiledThreadScope profiled;
  PoolMetrics& metrics = Metrics();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth.Set(static_cast<double>(queue_.size()));
    }
    metrics.active.Add(1.0);
    task();
    metrics.active.Add(-1.0);
    metrics.executed.Increment();
  }
}

ThreadPool::PoolStats ThreadPool::GlobalStats() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  PoolStats stats;
  stats.target_threads = ResolveTarget(GlobalTarget());
  const PoolMetrics& metrics = Metrics();
  stats.executed = metrics.executed.value();
  stats.submitted = metrics.submitted.value();
  stats.active = static_cast<size_t>(std::max(0.0, metrics.active.value()));
  if (const auto& slot = GlobalSlot()) {
    stats.workers = slot->workers_.size();
    std::lock_guard<std::mutex> queue_lock(slot->mutex_);
    stats.queue_depth = slot->queue_.size();
  }
  return stats;
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  auto& slot = GlobalSlot();
  if (!slot) {
    size_t total = ResolveTarget(GlobalTarget());
    // The calling thread participates in every parallel region, so the pool
    // itself only needs total - 1 workers.
    slot = std::make_unique<ThreadPool>(total - 1);
  }
  return *slot;
}

Status ThreadPool::SetGlobalThreads(int threads) {
  ExecConfig config{threads};
  PPDP_RETURN_IF_ERROR(config.Validate());
  std::lock_guard<std::mutex> lock(GlobalMutex());
  GlobalTarget() = threads;
  auto& slot = GlobalSlot();
  if (slot && slot->num_workers() + 1 != config.ResolvedThreads()) {
    slot.reset();  // next Global() call rebuilds at the new size
  }
  return Status::Ok();
}

size_t ThreadPool::GlobalThreadTarget() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  return ResolveTarget(GlobalTarget());
}

}  // namespace ppdp::exec
