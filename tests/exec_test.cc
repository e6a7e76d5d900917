#include "exec/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/exec_config.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::exec {
namespace {

TEST(ExecConfigTest, ValidateRejectsNegativeThreads) {
  EXPECT_TRUE(ExecConfig{0}.Validate().ok());
  EXPECT_TRUE(ExecConfig{1}.Validate().ok());
  EXPECT_TRUE(ExecConfig{64}.Validate().ok());
  EXPECT_EQ(ExecConfig{-1}.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ExecConfigTest, ResolvedThreads) {
  EXPECT_EQ(ExecConfig{3}.ResolvedThreads(), 3u);
  EXPECT_GE(ExecConfig{0}.ResolvedThreads(), 1u);  // hardware concurrency, floor 1
  EXPECT_EQ(ExecConfig{0}.ResolvedThreads(), HardwareThreads());
}

TEST(ThreadPoolTest, SetGlobalThreadsRejectsNegative) {
  EXPECT_EQ(ThreadPool::SetGlobalThreads(-4).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(ThreadPool::SetGlobalThreads(2).ok());
  EXPECT_EQ(ThreadPool::GlobalThreadTarget(), 2u);
  EXPECT_EQ(ThreadPool::Global().num_workers(), 1u);  // caller participates
  ASSERT_TRUE(ThreadPool::SetGlobalThreads(0).ok());
}

TEST(ThreadPoolTest, SubmitExecutesTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  // The destructor drains the queue before joining.
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(done.load(), 100);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h.store(0);
    ParallelFor(0, hits.size(), /*grain=*/7,
                [&](size_t i) { hits[i].fetch_add(1); }, ExecConfig{threads});
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at threads=" << threads;
    }
  }
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 4, [&](size_t) { calls.fetch_add(1); }, ExecConfig{8});
  EXPECT_EQ(calls.load(), 0);
  ParallelFor(0, 3, 100, [&](size_t) { calls.fetch_add(1); }, ExecConfig{8});
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelForTest, NestedRegionsRunInline) {
  std::vector<std::atomic<int>> hits(64 * 64);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, 64, 1,
              [&](size_t i) {
                ParallelFor(0, 64, 4,
                            [&](size_t j) { hits[i * 64 + j].fetch_add(1); }, ExecConfig{8});
              },
              ExecConfig{8});
  for (size_t k = 0; k < hits.size(); ++k) ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
}

TEST(ParallelForTest, HelpersRunUnderTheCallersSpanAndOpenNoPhases) {
  obs::TraceRecorder::Global().Clear();
  obs::Counter& calls = obs::MetricsRegistry::Global().counter("exec.parallel_for.calls");
  ASSERT_TRUE(ThreadPool::SetGlobalThreads(4).ok());
  std::vector<uint32_t> seen(64, 0);
  std::vector<std::thread::id> ran_on(seen.size());
  uint32_t caller = 0;
  uint64_t calls_before = 0;
  {
    obs::TraceSpan span(PPDP_SPAN_SITE("exec_test.caller"));
    caller = span.id();
    calls_before = calls.value();
    // One index per chunk with a stall, so the helpers claim some.
    ParallelFor(0, seen.size(), 1,
                [&](size_t i) {
                  seen[i] = obs::CurrentThreadSpanId();
                  ran_on[i] = std::this_thread::get_id();
                  std::this_thread::sleep_for(std::chrono::milliseconds(1));
                },
                ExecConfig{4});
    EXPECT_EQ(calls.value(), calls_before + 1);
  }
  EXPECT_NE(std::count(ran_on.begin(), ran_on.end(), ran_on.front()),
            static_cast<std::ptrdiff_t>(ran_on.size()))
      << "no helper ran a chunk";
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], caller) << "index " << i;
  for (const obs::TraceRecorder::PhaseStats& phase :
       obs::TraceRecorder::Global().PhaseStatsSorted()) {
    EXPECT_NE(phase.name.rfind("exec.", 0), 0u) << "per-call phase row " << phase.name;
  }
  ASSERT_TRUE(ThreadPool::SetGlobalThreads(0).ok());
}

}  // namespace
}  // namespace ppdp::exec
