#include "serve/coalescer.h"

#include <optional>
#include <utility>

namespace ppdp::serve {

BatchCoalescer::Outcome BatchCoalescer::Run(const std::string& key, RequestContext* context,
                                            const Runner& runner) {
  std::shared_ptr<Batch> batch;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = in_flight_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Batch>();
      if (context != nullptr) it->second->leader_request_id = context->record.request_id;
      leader = true;
    } else {
      ++it->second->members;
      followers_served_.fetch_add(1, std::memory_order_relaxed);
    }
    batch = it->second;
  }

  if (leader) {
    Result<core::PublishOutput> result = [&] {
      std::optional<StageTimer> publish_stage;
      if (context != nullptr) publish_stage.emplace(context, PPDP_SPAN_SITE("serve.publish"));
      return runner();
    }();
    batches_run_.fetch_add(1, std::memory_order_relaxed);
    {
      // Un-list before marking done: once a member can see the result, no
      // new arrival can join this batch — it starts a fresh run.
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> batch_lock(batch->mutex);
      batch->result = std::move(result);
      batch->done = true;
    }
    batch->cv.notify_all();
  } else {
    // A waiter's whole latency inside the coalescer is wait: the rest of
    // the leader's run.
    std::optional<StageTimer> wait_stage;
    if (context != nullptr) wait_stage.emplace(context, PPDP_SPAN_SITE("serve.coalesce.wait"));
    std::unique_lock<std::mutex> batch_lock(batch->mutex);
    batch->cv.wait(batch_lock, [&batch] { return batch->done; });
  }

  std::lock_guard<std::mutex> batch_lock(batch->mutex);
  return Outcome{batch->result, leader, batch->members, batch->leader_request_id};
}

}  // namespace ppdp::serve
