#ifndef PPDP_SERVE_COALESCER_H_
#define PPDP_SERVE_COALESCER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "core/publisher.h"
#include "serve/request_trace.h"

namespace ppdp::serve {

/// Request coalescing for publisher runs: requests that name the same
/// corpus + sanitization config (same key) while a run for that key is in
/// flight join it. The first arrival becomes the leader and runs at once;
/// arrivals during the run wait for it and share its result; an arrival
/// after the run completed starts a fresh one. Publisher::Publish is const
/// and deterministic for equal configs, which is what makes sharing sound;
/// ε accounting stays per-request (every member's tenant is charged by the
/// caller before joining), so coalescing saves compute, never privacy
/// budget.
class BatchCoalescer {
 public:
  using Runner = std::function<Result<core::PublishOutput>()>;

  struct Outcome {
    Result<core::PublishOutput> result;
    bool leader = false;    ///< this call executed the run
    size_t batch_size = 1;  ///< members (leader + followers) sharing the result
    /// Request id of the member that executed the run — for a waiter, the
    /// id its latency should be attributed to. Empty when no context was
    /// passed (coalescer unit tests).
    std::string leader_request_id;
  };

  BatchCoalescer() = default;
  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  /// Joins the run in flight for `key`, or leads a new one. Blocks until
  /// that run has completed and returns its (shared) result. When `context`
  /// is non-null its stage timeline is annotated: the leader records
  /// serve.publish (the run); a waiter records serve.coalesce.wait for its
  /// whole wait.
  Outcome Run(const std::string& key, RequestContext* context, const Runner& runner);

  uint64_t batches_run() const { return batches_run_.load(std::memory_order_relaxed); }
  /// Followers that joined a run; counted when they join, before the run
  /// completes.
  uint64_t followers_served() const { return followers_served_.load(std::memory_order_relaxed); }

 private:
  struct Batch {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;  ///< result is populated
    /// Written under the registry lock while the batch is listed; read
    /// after `done`, which the leader sets only once it has un-listed it.
    size_t members = 1;
    std::string leader_request_id;
    Result<core::PublishOutput> result = Status::Internal("batch pending");
  };

  std::atomic<uint64_t> batches_run_{0};
  std::atomic<uint64_t> followers_served_{0};
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Batch>> in_flight_;
};

}  // namespace ppdp::serve

#endif  // PPDP_SERVE_COALESCER_H_
