#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/rng.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "genomics/snp_sanitizer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace ppdp::obs {
namespace {

/// Restores the global log level and default sink after each test so the
/// fixture never leaks state into the rest of the suite.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_level_ = GetLogLevel(); }
  void TearDown() override {
    SetLogSink(nullptr);
    SetLogLevel(previous_level_);
  }

  LogLevel previous_level_ = LogLevel::kWarn;
};

TEST_F(ObsTest, ParseLogLevelAcceptsKnownNames) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);

  level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kInfo) << "junk must leave the level untouched";
}

TEST_F(ObsTest, LevelThresholdFiltersRecords) {
  std::vector<LogRecord> captured;
  SetLogSink([&captured](const LogRecord& r) { captured.push_back(r); });

  SetLogLevel(LogLevel::kWarn);
  PPDP_LOG(INFO) << "filtered out";
  PPDP_LOG(WARN) << "kept";
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].level, LogLevel::kWarn);
  EXPECT_EQ(captured[0].message, "kept");

  SetLogLevel(LogLevel::kDebug);
  PPDP_LOG(DEBUG) << "now visible";
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[1].level, LogLevel::kDebug);

  SetLogLevel(LogLevel::kOff);
  PPDP_LOG(ERROR) << "silenced";
  EXPECT_EQ(captured.size(), 2u);
}

TEST_F(ObsTest, DisabledLevelDoesNotEvaluateStream) {
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("costly");
  };
  PPDP_LOG(DEBUG) << expensive();
  EXPECT_EQ(evaluations, 0) << "stream operands must be skipped below the threshold";
  PPDP_LOG(ERROR) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(ObsTest, SinkReceivesFileLineAndFields) {
  std::vector<LogRecord> captured;
  SetLogSink([&captured](const LogRecord& r) { captured.push_back(r); });
  SetLogLevel(LogLevel::kInfo);

  PPDP_LOG(INFO) << "fit done" << Field("epsilon", 0.5) << Field("rows", 42)
                 << Field("label", "two words") << Field("ok", true);
  ASSERT_EQ(captured.size(), 1u);
  const LogRecord& r = captured[0];
  EXPECT_STREQ(r.file, "obs_test.cc");
  EXPECT_GT(r.line, 0);
  EXPECT_GE(r.elapsed_seconds, 0.0);
  EXPECT_EQ(r.message, "fit done epsilon=0.5 rows=42 label=\"two words\" ok=true");
}

TEST_F(ObsTest, CounterMath) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(9);
  EXPECT_EQ(counter.value(), 10u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST_F(ObsTest, HistogramBucketsAndStats) {
  Histogram histogram({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 1.7, 3.0, 100.0}) histogram.Observe(v);

  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.5 + 1.7 + 3.0 + 100.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), histogram.sum() / 5.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);

  std::vector<uint64_t> expected = {1, 2, 1, 1};  // <=1, <=2, <=4, overflow
  EXPECT_EQ(histogram.bucket_counts(), expected);

  // The median falls in the (1, 2] bucket; quantiles must be monotone.
  double p50 = histogram.Quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_LE(histogram.Quantile(0.25), p50);
  EXPECT_LE(p50, histogram.Quantile(0.95));

  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
}

TEST_F(ObsTest, RegistryReturnsStableReferencesAcrossReset) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.counter");
  counter.Increment(3);
  EXPECT_EQ(&registry.counter("test.counter"), &counter);

  registry.Reset();
  EXPECT_EQ(counter.value(), 0u) << "Reset zeroes but keeps the registration";
  counter.Increment();
  EXPECT_EQ(registry.counter("test.counter").value(), 1u);
}

/// The global recorder's row for phase `name` (count 0 when none closed).
TraceRecorder::PhaseStats FindPhase(const std::string& name) {
  for (TraceRecorder::PhaseStats& phase : TraceRecorder::Global().PhaseStatsSorted()) {
    if (phase.name == name) return phase;
  }
  return {};
}

TEST_F(ObsTest, NestedTraceSpansHaveMonotonicTiming) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();

  {
    TraceSpan outer(PPDP_SPAN_SITE("obs_test.outer"));
    {
      TraceSpan inner(PPDP_SPAN_SITE("obs_test.inner"));
      // Do a little real work so the inner duration is non-trivial.
      volatile double sink = 0.0;
      for (int i = 0; i < 50000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
      EXPECT_GE(inner.ElapsedSeconds(), 0.0);
    }
    EXPECT_GE(outer.ElapsedSeconds(), 0.0);
  }

  // Interval containment of the two events is checked, with retention on,
  // in PhaseRowsEqualAFoldOfTheRetainedEvents.
  TraceRecorder::PhaseStats outer = FindPhase("obs_test.outer");
  TraceRecorder::PhaseStats inner = FindPhase("obs_test.inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  EXPECT_GE(outer.wall_ms_total, inner.wall_ms_total);
  EXPECT_EQ(recorder.PhaseStatsSorted().size(), 2u);
  recorder.Clear();
}

TEST_F(ObsTest, PhaseRowsCountEverySpanPastTheChromeTraceCap) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 70000;
  static_assert(kThreads * kSpansPerThread > TraceRecorder::kMaxEvents);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) TraceSpan span(PPDP_SPAN_SITE("obs_test.flood"));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(FindPhase("obs_test.flood").count, static_cast<uint64_t>(kThreads * kSpansPerThread));
  EXPECT_TRUE(recorder.events().empty()) << "event retention is off by default";
  EXPECT_EQ(recorder.num_dropped(), 0u);
  recorder.Clear();
}

/// A reference fold of closed spans: one thread's closes in close order,
/// then thread rows merged, as the recorder folds them.
struct Fold {
  uint64_t count = 0;
  double total_us = 0.0, min_us = 0.0, max_us = 0.0, cpu_us = 0.0;
  uint64_t alloc_bytes = 0;

  void Merge(const Fold& other) {
    if (other.count == 0) return;
    min_us = count == 0 ? other.min_us : std::min(min_us, other.min_us);
    max_us = count == 0 ? other.max_us : std::max(max_us, other.max_us);
    count += other.count;
    total_us += other.total_us;
    cpu_us += other.cpu_us;
    alloc_bytes += other.alloc_bytes;
  }
  void Add(const TraceEvent& e) {
    Merge(Fold{1, e.duration_us, e.duration_us, e.duration_us, e.cpu_us, e.alloc_bytes});
  }
};

/// Per span name: each thread ordinal's closes folded in close order, then
/// the threads merged in ordinal order.
std::map<std::string, Fold> PerThreadFold(const std::vector<TraceEvent>& events) {
  std::map<uint32_t, std::map<std::string, Fold>> by_thread;
  for (const TraceEvent& e : events) by_thread[e.thread][SpanNameForId(e.span)].Add(e);
  std::map<std::string, Fold> folds;
  for (const auto& [thread, rows] : by_thread) {
    for (const auto& [name, fold] : rows) folds[name].Merge(fold);
  }
  return folds;
}

TEST_F(ObsTest, PhaseRowsEqualAFoldOfTheRetainedEvents) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetRetainEvents(true);
  constexpr int kThreads = 3;
  // Threads open their first span one at a time and none goes on before
  // all have, so each leases its own span slot, in ordinal order, and a
  // read sums their rows in that order.
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &turn] {
      for (int i = 0; i < 40; ++i) {
        while (i == 0 && turn.load() != t) std::this_thread::yield();
        TraceSpan outer(PPDP_SPAN_SITE("obs_test.fold.outer"));
        if (i == 0) turn.fetch_add(1);
        while (turn.load() != kThreads) std::this_thread::yield();
        std::vector<char> scratch(static_cast<size_t>(64 * (i + t + 1)));
        TraceSpan middle(i % 2 == 0 ? PPDP_SPAN_SITE("obs_test.fold.even")
                                    : PPDP_SPAN_SITE("obs_test.fold.odd"));
        { TraceSpan inner(PPDP_SPAN_SITE("obs_test.fold.inner")); }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<TraceEvent> events = recorder.events();
  recorder.SetRetainEvents(false);
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * 40 * 3));

  // Sums match bit for bit only in the recorder's own order: each thread's
  // closes in close order, then thread rows in slot order.
  std::map<std::string, Fold> folds = PerThreadFold(events);
  std::vector<TraceRecorder::PhaseStats> phases = recorder.PhaseStatsSorted();
  ASSERT_EQ(phases.size(), 4u);
  for (const TraceRecorder::PhaseStats& phase : phases) {
    SCOPED_TRACE(phase.name);
    ASSERT_EQ(folds.count(phase.name), 1u);
    const Fold& fold = folds[phase.name];
    EXPECT_EQ(phase.count, fold.count);
    EXPECT_EQ(phase.wall_ms_total, fold.total_us / 1e3);
    EXPECT_EQ(phase.wall_ms_min, fold.min_us / 1e3);
    EXPECT_EQ(phase.wall_ms_max, fold.max_us / 1e3);
    EXPECT_EQ(phase.cpu_ms_total, fold.cpu_us / 1e3);
    EXPECT_EQ(phase.alloc_bytes_total, fold.alloc_bytes);
  }

  // Each thread closes inner, middle, outer in that order, and every inner
  // interval lies within its enclosing one.
  std::map<uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) by_thread[e.thread].push_back(&e);
  ASSERT_EQ(by_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [thread, closes] : by_thread) {
    for (size_t i = 0; i + 2 < closes.size(); i += 3) {
      const TraceEvent& inner = *closes[i];
      const TraceEvent& outer = *closes[i + 2];
      EXPECT_EQ(SpanNameForId(inner.span), "obs_test.fold.inner");
      EXPECT_EQ(SpanNameForId(outer.span), "obs_test.fold.outer");
      EXPECT_GE(inner.start_us, outer.start_us);
      EXPECT_LE(inner.start_us + inner.duration_us, outer.start_us + outer.duration_us + 1e-3);
    }
  }
  recorder.Clear();
}

/// Closes `n` spans of `site` on the calling thread, each allocating a
/// little so the alloc column moves.
void CloseSpans(const SpanSite& site, int n) {
  for (int i = 0; i < n; ++i) {
    TraceSpan span(site);
    std::vector<char> scratch(static_cast<size_t>(32 * (i % 7 + 1)));
  }
}

/// Holds a thread that has closed its spans until the test lets it exit.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  bool open = false;

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void AwaitArrivals(int n) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return arrived == n; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

TEST_F(ObsTest, PhaseRowsCountLiveAndExitedThreads) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetRetainEvents(true);
  const SpanSite& a = PPDP_SPAN_SITE("obs_test.slots.a");
  const SpanSite& b = PPDP_SPAN_SITE("obs_test.slots.b");
  // Three threads close spans and exit; three more, one at a time, take
  // over their slots (and rows); three stay alive through the read.
  std::vector<std::thread> exited;
  for (int t = 0; t < 3; ++t) exited.emplace_back([&, t] { CloseSpans(t % 2 ? a : b, 50 + t); });
  for (auto& thread : exited) thread.join();
  for (int t = 0; t < 3; ++t) std::thread([&] { CloseSpans(a, 20); }).join();
  Gate gate;
  std::vector<std::thread> live;
  for (int t = 0; t < 3; ++t) {
    live.emplace_back([&, t] {
      CloseSpans(a, 30 + t);
      CloseSpans(b, 10);
      gate.ArriveAndWait();
    });
  }
  gate.AwaitArrivals(3);
  std::vector<TraceRecorder::PhaseStats> phases = recorder.PhaseStatsSorted();
  std::vector<TraceEvent> events = recorder.events();
  gate.Open();
  for (auto& thread : live) thread.join();
  recorder.SetRetainEvents(false);

  std::map<std::string, Fold> folds = PerThreadFold(events);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(folds["obs_test.slots.a"].count, 51u + 3 * 20 + 30 + 31 + 32);
  EXPECT_EQ(folds["obs_test.slots.b"].count, 50u + 52 + 3 * 10);
  for (const TraceRecorder::PhaseStats& phase : phases) {
    SCOPED_TRACE(phase.name);
    const Fold& fold = folds[phase.name];
    EXPECT_EQ(phase.count, fold.count);
    EXPECT_EQ(phase.wall_ms_min, fold.min_us / 1e3);
    EXPECT_EQ(phase.wall_ms_max, fold.max_us / 1e3);
    EXPECT_EQ(phase.alloc_bytes_total, fold.alloc_bytes);
    // Slot reuse mixes two threads into one row, so sums agree only up to
    // the order of additions.
    EXPECT_NEAR(phase.wall_ms_total, fold.total_us / 1e3, 1e-9 * fold.total_us);
    EXPECT_NEAR(phase.cpu_ms_total, fold.cpu_us / 1e3, 1e-9 * fold.cpu_us + 1e-12);
  }
  recorder.Clear();
}

TEST_F(ObsTest, ClearResetsTheRowsOfLiveAndExitedThreads) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  const SpanSite& live_site = PPDP_SPAN_SITE("obs_test.clear.live");
  std::thread([] { CloseSpans(PPDP_SPAN_SITE("obs_test.clear.exited"), 5); }).join();
  Gate cleared;
  std::thread live([&] {
    CloseSpans(live_site, 5);
    cleared.ArriveAndWait();
    CloseSpans(live_site, 1);
  });
  cleared.AwaitArrivals(1);
  EXPECT_EQ(FindPhase("obs_test.clear.exited").count, 5u);
  EXPECT_EQ(FindPhase("obs_test.clear.live").count, 5u);
  recorder.Clear();
  EXPECT_TRUE(recorder.PhaseStatsSorted().empty());
  cleared.Open();
  live.join();
  EXPECT_EQ(FindPhase("obs_test.clear.live").count, 1u) << "the live thread's row restarted";
  EXPECT_EQ(FindPhase("obs_test.clear.exited").count, 0u);
  recorder.Clear();
}

TEST_F(ObsTest, PhaseStatsSortedPollsWhileSpansClose) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  constexpr int kThreads = 3;
  constexpr int kSpansPerThread = 20000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan outer(PPDP_SPAN_SITE("obs_test.poll"));
        TraceSpan inner(PPDP_SPAN_SITE("obs_test.poll.inner"));
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last = 0;
  size_t polls = 0;
  while (running.load() > 0 || polls == 0) {
    const TraceRecorder::PhaseStats outer = FindPhase("obs_test.poll");
    const TraceRecorder::PhaseStats inner = FindPhase("obs_test.poll.inner");
    EXPECT_GE(outer.count, last) << "a row never shrinks";
    EXPECT_LE(outer.count, static_cast<uint64_t>(kThreads * kSpansPerThread));
    EXPECT_LE(outer.wall_ms_min, outer.wall_ms_max);
    EXPECT_GE(inner.count + kThreads, outer.count) << "inner closes before outer";
    last = outer.count;
    ++polls;
  }
  for (auto& thread : writers) thread.join();
  EXPECT_EQ(FindPhase("obs_test.poll").count, static_cast<uint64_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(FindPhase("obs_test.poll.inner").count,
            static_cast<uint64_t>(kThreads * kSpansPerThread));
  recorder.Clear();
}

TEST_F(ObsTest, GreedySanitizeOpensOneSpanAndCountsEverySolve) {
  Rng rng(7);
  genomics::SyntheticCatalogConfig config;
  config.num_snps = 120;
  const genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(config, rng);
  const genomics::TargetView view =
      genomics::MakeTargetView(catalog, genomics::SampleIndividual(catalog, rng), {});
  genomics::GputOptions options;
  options.delta = 0.4;
  size_t pool = 0;  // GreedySanitize's candidates: published neighbor SNPs
  for (size_t s : genomics::NeighborSnpsOfTrait(catalog, 0)) {
    pool += view.snp_known[s] && view.individual.genotypes[s] != genomics::kUnknownGenotype;
  }

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  const Counter& runs = MetricsRegistry::Global().counter("genomics.bp.runs");
  const uint64_t runs_before = runs.value();
  const genomics::GputResult result = genomics::GreedySanitize(catalog, view, {0}, options);

  // One solve to start, one per candidate tried in each round, one per
  // pick; a last round that picks nothing runs unless δ was met or the pool
  // ran out.
  const size_t picks = result.sanitized.size();
  const size_t rounds = picks + (result.privacy_trace.back() < options.delta && pool > picks);
  size_t trials = 0;
  for (size_t round = 0; round < rounds; ++round) trials += pool - round;
  ASSERT_GT(trials, 10u) << "a greedy that tries candidates";
  EXPECT_EQ(runs.value() - runs_before, 1 + trials + picks);

  std::vector<TraceRecorder::PhaseStats> phases = recorder.PhaseStatsSorted();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "genomics.bp.sum_product");
  EXPECT_EQ(phases[0].count, 1u) << "the greedy call is one span, its solves none";
  recorder.Clear();
}

TEST_F(ObsTest, TraceSpanStopRecordsExactlyOneClose) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetRetainEvents(true);
  uint32_t id = 0;
  double stopped_micros = -1.0;
  {
    TraceSpan span(PPDP_SPAN_SITE("obs_test.stopped"));
    id = span.id();
    EXPECT_EQ(CurrentThreadSpanId(), id);
    stopped_micros = span.Stop();
    EXPECT_EQ(CurrentThreadSpanId(), 0u) << "Stop() pops the span off the thread's stack";
    EXPECT_EQ(span.Stop(), 0.0) << "a second Stop() is a no-op";
  }
  std::vector<TraceEvent> events = recorder.events();
  recorder.SetRetainEvents(false);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span, id);
  EXPECT_EQ(events[0].duration_us, stopped_micros);
  EXPECT_EQ(FindPhase("obs_test.stopped").count, 1u);
  recorder.Clear();
}

TEST_F(ObsTest, ActiveSpanStacksReadEachThreadsIdStack) {
  std::mutex mutex;
  std::condition_variable cv;
  bool inside = false;
  bool release = false;
  uint32_t innermost = 0;
  uint32_t c_id = 0;
  std::thread blocked([&] {
    TraceSpan a(PPDP_SPAN_SITE("obs_test.stack.a"));
    TraceSpan b(PPDP_SPAN_SITE("obs_test.stack.b"));
    TraceSpan c(PPDP_SPAN_SITE("obs_test.stack.c"));
    std::unique_lock<std::mutex> lock(mutex);
    innermost = CurrentThreadSpanId();
    c_id = c.id();
    inside = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return inside; });
  }
  std::vector<ActiveSpanStack> stacks = ActiveSpanStacks();
  ASSERT_EQ(stacks.size(), 1u);
  EXPECT_EQ(stacks[0].spans,
            (std::vector<std::string>{"obs_test.stack.a", "obs_test.stack.b", "obs_test.stack.c"}));
  EXPECT_EQ(innermost, c_id);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  blocked.join();

  // Short-lived threads return their slots at exit; none is left open.
  for (int batch = 0; batch < 100; ++batch) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 10; ++t) {
      threads.emplace_back([] { TraceSpan span(PPDP_SPAN_SITE("obs_test.stack.short")); });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_TRUE(ActiveSpanStacks().empty());
  TraceRecorder::Global().Clear();
}

TEST_F(ObsTest, ParseLogLevelRejectsJunkAndBoundaryInputs) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel(" warn", &level)) << "leading whitespace is not trimmed";
  EXPECT_FALSE(ParseLogLevel("warn ", &level)) << "trailing whitespace is not trimmed";
  EXPECT_FALSE(ParseLogLevel("warnn", &level));
  EXPECT_FALSE(ParseLogLevel("debug,info", &level));
  EXPECT_FALSE(ParseLogLevel("2", &level)) << "numeric levels are not a thing";
  EXPECT_FALSE(ParseLogLevel("d\xc3\xa9" "bug", &level)) << "non-ASCII never matches";
  EXPECT_FALSE(ParseLogLevel(std::string("off\0", 4), &level)) << "embedded NUL is junk";
  EXPECT_EQ(level, LogLevel::kInfo) << "every rejection must leave the level untouched";

  // Accepted aliases and case folding at the boundaries of the lexicon.
  EXPECT_TRUE(ParseLogLevel("NONE", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_TRUE(ParseLogLevel("wArNiNg", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
}

TEST_F(ObsTest, HistogramQuantilesOnEmptySingleAndAllEqualSamples) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0) << "empty histogram quantiles are 0";
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);

  Histogram single({1.0, 2.0});
  single.Observe(1.7);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.Quantile(q), 1.7) << "q=" << q;
  }

  Histogram equal({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) equal.Observe(3.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(equal.Quantile(q), 3.0) << "q=" << q;
  }

  // Out-of-range q is clamped, not UB.
  EXPECT_DOUBLE_EQ(equal.Quantile(-0.5), 3.0);
  EXPECT_DOUBLE_EQ(equal.Quantile(2.0), 3.0);
}

TEST_F(ObsTest, BucketQuantileInterpolatesOverTheObservedRange) {
  // Inside one wide default bucket (1..3 ms): the median lies where the
  // observations do, not at their minimum.
  Histogram histogram(DefaultLatencyBoundsSeconds());
  SlidingWindow window({.bucket_seconds = 10.0, .num_buckets = 1,
                        .bounds = DefaultLatencyBoundsSeconds()});
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double value = 2.0e-3 + 0.5e-3 * static_cast<double>(i) / (n - 1);
    histogram.Observe(value);
    window.Add(value, 1.0);
  }
  EXPECT_NEAR(histogram.Quantile(0.5), 2.25e-3, 1e-9);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), window.QuantileOver(10.0, 0.5, 1.0));
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.95), window.QuantileOver(10.0, 0.95, 1.0));

  // Both keep one BucketAccumulator per bucket, so they agree on bucket
  // counts and on every quantile for values on every bound (le semantics:
  // a bound belongs to its own bucket), below the first bound, above the
  // last, and negative.
  const std::vector<double> bounds = {-1.0, 0.0, 1.0, 2.5, 10.0};
  const std::vector<double> values = {-7.5, -3.0, -1.0, -0.5, 0.0, 0.3, 1.0,
                                      1.7,  2.5,  5.0,  10.0, 11.0, 40.0};
  Histogram edges(bounds);
  // A 4 s ring fed for 12 s wraps twice. Only the last lap [8, 12) is
  // inside the window; the earlier laps carry other values, so a recycled
  // bucket that leaked into the merge would change the answer.
  SlidingWindow ring({.bucket_seconds = 1.0, .num_buckets = 4, .bounds = bounds});
  for (int t = 0; t < 12; ++t) {
    for (double value : values) {
      if (t < 8) {
        ring.Add(3.0 * value + 20.0, t + 0.5);
        continue;
      }
      ring.Add(value, t + 0.5);
      edges.Observe(value);
    }
  }
  const BucketAccumulator merged = ring.MergedOver(4.0, 11.5);
  const std::vector<uint64_t> expected = {12, 8, 8, 8, 8, 8};  // 4 seconds of 3,2,2,2,2,2
  EXPECT_EQ(edges.bucket_counts(), expected);
  EXPECT_EQ(merged.counts, expected);
  EXPECT_EQ(merged.count, edges.count());
  EXPECT_DOUBLE_EQ(merged.sum, edges.sum());
  EXPECT_EQ(merged.min, edges.min());
  EXPECT_EQ(merged.max, edges.max());
  EXPECT_DOUBLE_EQ(edges.Quantile(0.0), -7.5);
  EXPECT_DOUBLE_EQ(edges.Quantile(1.0), 40.0);
  double previous = edges.min();
  for (int i = -10; i <= 30; ++i) {
    const double q = i / 20.0;  // includes q < 0 and q > 1 (clamped)
    const double estimate = edges.Quantile(q);
    EXPECT_EQ(estimate, ring.QuantileOver(4.0, q, 11.5)) << "q=" << q;
    EXPECT_GE(estimate, previous) << "quantiles must be monotone in q; q=" << q;
    EXPECT_LE(estimate, edges.max()) << "q=" << q;
    previous = estimate;
  }

  edges.Reset();
  EXPECT_DOUBLE_EQ(edges.Quantile(0.5), 0.0) << "Reset empties the buckets";
  EXPECT_EQ(edges.bucket_counts(), std::vector<uint64_t>(bounds.size() + 1, 0));
}

TEST_F(ObsTest, JsonLogRecordIsParseableAndEscaped) {
  LogRecord record;
  record.level = LogLevel::kWarn;
  record.file = "x.cc";
  record.line = 12;
  record.elapsed_seconds = 1.5;
  record.message = "path \"a\\b\"\nnext";

  std::string line = FormatLogRecordJson(record);
  auto doc = JsonValue::Parse(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << " in: " << line;
  EXPECT_EQ(doc->GetStringOr("level", ""), "WARN");
  EXPECT_EQ(doc->GetStringOr("file", ""), "x.cc");
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("line", 0), 12.0);
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("elapsed_s", 0), 1.5);
  EXPECT_EQ(doc->GetStringOr("message", ""), "path \"a\\b\"\nnext")
      << "escaping must round-trip through a JSON parser";
}

TEST_F(ObsTest, LogJsonFlagInstallsParseableSink) {
  const char* argv[] = {"bench", "--log_json", "--log_level", "info"};
  Flags flags(4, const_cast<char**>(argv));
  ASSERT_TRUE(InitLoggingFromFlags(flags));
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);

  // The JSON sink writes to stderr; capture it to prove one object per line.
  ::testing::internal::CaptureStderr();
  PPDP_LOG(INFO) << "structured" << Field("k", 1);
  std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_FALSE(err.empty());
  ASSERT_EQ(err.back(), '\n');
  auto doc = JsonValue::Parse(err.substr(0, err.size() - 1));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << " in: " << err;
  EXPECT_EQ(doc->GetStringOr("message", ""), "structured k=1");
}

TEST_F(ObsTest, TraceSpansFromMultipleThreadsAllRecorded) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) TraceSpan span(PPDP_SPAN_SITE("obs_test.mt"));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(FindPhase("obs_test.mt").count, static_cast<uint64_t>(kThreads * kSpansPerThread));
  recorder.Clear();
}

}  // namespace
}  // namespace ppdp::obs
