#include "obs/slo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/profiler.h"
#include "obs/rotating_log.h"

namespace ppdp::obs {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

// ---------------------------------------------------------------- windows

TEST(SlidingWindowTest, CountsAndMeansOverTheWindow) {
  SlidingWindow::Options options;
  options.bucket_seconds = 1.0;
  options.num_buckets = 16;
  SlidingWindow window(options);
  window.Add(2.0, 1.2);
  window.Add(4.0, 1.8);
  window.Add(6.0, 3.4);

  SlidingWindow::WindowStats stats = window.StatsOver(10.0, 3.9);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 12.0);
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
  EXPECT_DOUBLE_EQ(window.RateOver(10.0, 3.9), 12.0 / 10.0);
}

TEST(SlidingWindowTest, OldBucketsFallOutOfTheWindow) {
  SlidingWindow::Options options;
  options.bucket_seconds = 1.0;
  options.num_buckets = 64;
  SlidingWindow window(options);
  for (int t = 1; t <= 10; ++t) window.Add(1.0, static_cast<double>(t));
  // A 4-second window at t=10 covers buckets 7..10 only.
  EXPECT_EQ(window.StatsOver(4.0, 10.0).count, 4u);
  // Far in the future everything has expired.
  EXPECT_EQ(window.StatsOver(4.0, 1000.0).count, 0u);
}

TEST(SlidingWindowTest, RingSlotsAreRecycledAfterWrapAround) {
  SlidingWindow::Options options;
  options.bucket_seconds = 1.0;
  options.num_buckets = 4;  // tiny ring: t and t+4 share a slot
  SlidingWindow window(options);
  for (int t = 0; t <= 10; ++t) window.Add(1.0, static_cast<double>(t));
  // The span clamps the window; stale generations must not leak counts.
  EXPECT_EQ(window.StatsOver(4.0, 10.0).count, 4u);
}

TEST(SlidingWindowTest, BucketMinusOneIsAnOrdinaryBucket) {
  // Index -1 once doubled as the never-used mark, so a first Add just
  // before t = 0 skipped the reset that sizes a slot's histogram.
  SlidingWindow window({.bucket_seconds = 1.0, .num_buckets = 8, .bounds = {0.1, 1.0}});
  window.Add(0.5, -0.5);
  window.Add(2.0, -0.25);
  EXPECT_EQ(window.StatsOver(1.0, -0.1).count, 2u);
  EXPECT_EQ(window.MergedOver(1.0, -0.1).counts, (std::vector<uint64_t>{0, 1, 1}));
  EXPECT_DOUBLE_EQ(window.QuantileOver(4.0, 1.0, 1.5), 2.0);
}

TEST(SlidingWindowTest, QuantilesInterpolateWithinHistogramBounds) {
  SlidingWindow::Options options;
  options.bucket_seconds = 1.0;
  options.num_buckets = 16;
  options.bounds = {0.001, 0.01, 0.1, 1.0};
  SlidingWindow window(options);
  for (int i = 0; i < 90; ++i) window.Add(0.005, 2.0);
  for (int i = 0; i < 10; ++i) window.Add(0.5, 2.5);

  const double p50 = window.QuantileOver(10.0, 0.5, 3.0);
  EXPECT_GE(p50, 0.001);
  EXPECT_LE(p50, 0.01);
  const double p99 = window.QuantileOver(10.0, 0.99, 3.0);
  EXPECT_GE(p99, 0.1);
  // Observed min/max clamp the interpolation: nothing above 0.5 was seen.
  EXPECT_LE(p99, 0.5);
  // Without bounds there is no quantile to give.
  SlidingWindow counter({1.0, 16, {}});
  counter.Add(1.0, 2.0);
  EXPECT_DOUBLE_EQ(counter.QuantileOver(10.0, 0.99, 3.0), 0.0);
}

/// A full-ring copy of SlidingWindow's original scans: every query walks all
/// buckets and keeps those inside [first, current], summing them oldest
/// bucket first. The window under test reads its closed buckets from a
/// cache and merges the live one last; both must give the same bits.
class FullRingWindow {
 public:
  explicit FullRingWindow(SlidingWindow::Options options)
      : options_(std::move(options)), ring_(options_.num_buckets) {}

  void Add(double value, double now) {
    const int64_t index = static_cast<int64_t>(std::floor(now / options_.bucket_seconds));
    const int64_t n = static_cast<int64_t>(ring_.size());
    Bucket& bucket = ring_[static_cast<size_t>(((index % n) + n) % n)];
    if (bucket.index != index) {
      bucket = Bucket{};
      bucket.index = index;
      bucket.bound_counts.assign(options_.bounds.size() + 1, 0);
    }
    if (bucket.count == 0) {
      bucket.min = value;
      bucket.max = value;
    } else {
      bucket.min = std::min(bucket.min, value);
      bucket.max = std::max(bucket.max, value);
    }
    ++bucket.count;
    bucket.sum += value;
    size_t b = 0;
    while (b < options_.bounds.size() && value > options_.bounds[b]) ++b;
    ++bucket.bound_counts[b];
  }

  SlidingWindow::WindowStats StatsOver(double window_seconds, double now) const {
    const int64_t first = FirstIndex(window_seconds, now);
    const int64_t current = static_cast<int64_t>(std::floor(now / options_.bucket_seconds));
    std::vector<const Bucket*> inside;
    for (const Bucket& bucket : ring_) {
      if (bucket.index < first || bucket.index > current || bucket.count == 0) continue;
      inside.push_back(&bucket);
    }
    std::sort(inside.begin(), inside.end(),
              [](const Bucket* a, const Bucket* b) { return a->index < b->index; });
    SlidingWindow::WindowStats stats;
    for (const Bucket* bucket : inside) {
      stats.count += bucket->count;
      stats.sum += bucket->sum;
    }
    if (stats.count > 0) stats.mean = stats.sum / static_cast<double>(stats.count);
    return stats;
  }

  double QuantileOver(double window_seconds, double q, double now) const {
    const int64_t first = FirstIndex(window_seconds, now);
    const int64_t current = static_cast<int64_t>(std::floor(now / options_.bucket_seconds));
    std::vector<uint64_t> merged(options_.bounds.size() + 1, 0);
    uint64_t count = 0;
    double lo_seen = 0.0;
    double hi_seen = 0.0;
    for (const Bucket& bucket : ring_) {
      if (bucket.index < first || bucket.index > current || bucket.count == 0) continue;
      for (size_t b = 0; b < merged.size(); ++b) merged[b] += bucket.bound_counts[b];
      if (count == 0) {
        lo_seen = bucket.min;
        hi_seen = bucket.max;
      } else {
        lo_seen = std::min(lo_seen, bucket.min);
        hi_seen = std::max(hi_seen, bucket.max);
      }
      count += bucket.count;
    }
    if (count == 0) return 0.0;
    if (count == 1) return hi_seen;
    const double rank = std::min(std::max(q, 0.0), 1.0) * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (size_t b = 0; b < merged.size(); ++b) {
      if (merged[b] == 0) continue;
      const double before = static_cast<double>(cumulative);
      cumulative += merged[b];
      if (static_cast<double>(cumulative) >= rank) {
        double lo = b == 0 ? std::min(lo_seen, options_.bounds[0]) : options_.bounds[b - 1];
        double hi = b < options_.bounds.size() ? options_.bounds[b] : hi_seen;
        lo = std::max(lo, lo_seen);
        hi = std::min(hi, hi_seen);
        if (hi <= lo) return std::min(std::max(lo, lo_seen), hi_seen);
        return lo + (rank - before) / static_cast<double>(merged[b]) * (hi - lo);
      }
    }
    return hi_seen;
  }

 private:
  struct Bucket {
    int64_t index = std::numeric_limits<int64_t>::min();  ///< unused: no real index
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<uint64_t> bound_counts;
  };

  int64_t FirstIndex(double window_seconds, double now) const {
    const double span = options_.bucket_seconds * static_cast<double>(options_.num_buckets);
    const double window = std::min(std::max(window_seconds, options_.bucket_seconds), span);
    const int64_t current = static_cast<int64_t>(std::floor(now / options_.bucket_seconds));
    return current -
           static_cast<int64_t>(std::ceil(window / options_.bucket_seconds - 1e-9)) + 1;
  }

  SlidingWindow::Options options_;
  std::vector<Bucket> ring_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(SlidingWindowTest, WindowScanMatchesFullRingScanBitForBit) {
  SlidingWindow::Options options;
  options.bucket_seconds = 0.25;
  options.num_buckets = 20;  // a 5 s span
  options.bounds = {0.001, 0.005, 0.02, 0.1, 0.5, 2.0};
  SlidingWindow window(options);
  FullRingWindow reference(options);
  Rng rng(17);
  // Shorter than a bucket, straddling ring position 0 from most query times,
  // exactly the span, and longer than the span (clamped to it).
  const std::vector<double> windows = {0.05, 0.25, 0.6, 1.3, 2.5, 4.75, 5.0, 7.0, 60.0};
  const std::vector<double> quantiles = {0.0, 0.5, 0.9, 0.99, 1.0};
  size_t queries = 0;
  auto check = [&](double now) {
    for (double w : windows) {
      const SlidingWindow::WindowStats got = window.StatsOver(w, now);
      const SlidingWindow::WindowStats want = reference.StatsOver(w, now);
      EXPECT_EQ(got.count, want.count) << "window " << w << " now " << now;
      EXPECT_EQ(Bits(got.sum), Bits(want.sum)) << "window " << w << " now " << now;
      EXPECT_EQ(Bits(got.mean), Bits(want.mean)) << "window " << w << " now " << now;
      for (double q : quantiles) {
        EXPECT_EQ(Bits(window.QuantileOver(w, q, now)), Bits(reference.QuantileOver(w, q, now)))
            << "window " << w << " q " << q << " now " << now;
      }
      ++queries;
    }
  };
  // Start below zero so negative bucket indices wrap too, then run about
  // three laps of the ring with irregular gaps, querying as the ring turns
  // over (including just before the newest sample, so a bucket newer than
  // `now` sits in the ring).
  // One sample always lands in bucket -1, t in [-bucket_seconds, 0), whose
  // ring position is still unused then: an unused-bucket mark of -1 would
  // pass it for a bucket already in use.
  double now = -2.0;
  bool added_to_bucket_minus_one = false;
  while (now < 13.0) {
    const uint64_t burst = rng.Uniform(7);
    for (uint64_t i = 0; i < burst; ++i) {
      const double value = 0.0005 * std::exp(9.0 * rng.UniformReal());
      window.Add(value, now);
      reference.Add(value, now);
    }
    if (!added_to_bucket_minus_one && now >= -options.bucket_seconds) {
      window.Add(0.003, -0.5 * options.bucket_seconds);
      reference.Add(0.003, -0.5 * options.bucket_seconds);
      added_to_bucket_minus_one = true;
    }
    check(now);
    check(now - 0.3);
    check(now + 0.25 * rng.UniformReal());
    now += 0.4 * rng.UniformReal();
  }
  // Long after the last sample every window is empty.
  check(now + 100.0);
  EXPECT_GT(queries, 1000u);
}

TEST(SlidingWindowTest, LateAddIntoAMergedBucketShowsInTheNextRead) {
  SlidingWindow window({.bucket_seconds = 1.0, .num_buckets = 4, .bounds = {1.0, 4.0}});
  window.Add(0.5, 1.5);
  window.Add(2.0, 2.5);
  window.Add(3.0, 3.5);
  // At t = 3.5 buckets 1 and 2 are closed and merged into the cache.
  EXPECT_EQ(window.StatsOver(4.0, 3.5).count, 3u);
  EXPECT_DOUBLE_EQ(window.QuantileOver(4.0, 1.0, 3.5), 3.0);

  // A writer whose clock lagged lands in closed bucket 2 after the read.
  window.Add(8.0, 2.9);
  SlidingWindow::WindowStats stats = window.StatsOver(4.0, 3.5);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.sum, 13.5);
  EXPECT_DOUBLE_EQ(window.QuantileOver(4.0, 1.0, 3.5), 8.0);
  EXPECT_EQ(window.MergedOver(4.0, 3.5).counts, (std::vector<uint64_t>{1, 2, 1}));

  // An Add ahead of the read recycles bucket 1's slot: the merged bucket
  // leaves the window read at the old instant, as a full-ring scan says.
  window.Add(1.0, 5.5);
  stats = window.StatsOver(4.0, 3.5);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 13.0);
}

TEST(SlidingWindowTest, JitteredWritersAndAPollingReaderLoseNoAdds) {
  // 10 ms buckets over a 20 s ring. Each writer's clock wanders up to 1.5
  // buckets either side of the shared timeline, so its Adds cross bucket
  // boundaries late and early while the reader keeps re-merging the cache.
  SlidingWindow window({.bucket_seconds = 0.01, .num_buckets = 2000, .bounds = {0.5, 2.0}});
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  constexpr double kStep = 0.002;  // 10 s of timeline
  std::atomic<int> done{0};
  std::atomic<uint64_t> progress{0};  // adds made, across writers
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < kPerWriter; ++i) {
        const double jitter = 0.015 * (2.0 * rng.UniformReal() - 1.0);
        window.Add(1.0, 1.0 + i * kStep + jitter);
        progress.fetch_add(1, std::memory_order_relaxed);
      }
      done.fetch_add(1);
    });
  }
  std::thread reader([&] {
    uint64_t reads = 0;
    while (done.load() < kWriters || reads == 0) {
      const double now = 1.0 + static_cast<double>(progress.load()) / kWriters * kStep;
      for (double w : {0.05, 1.0, 20.0}) {
        EXPECT_LE(window.StatsOver(w, now).count, static_cast<uint64_t>(kWriters * kPerWriter));
        EXPECT_LE(window.QuantileOver(w, 0.99, now), 1.0);
      }
      ++reads;
    }
  });
  for (std::thread& writer : writers) writer.join();
  reader.join();
  const double end = 1.0 + kPerWriter * kStep + 0.1;
  const SlidingWindow::WindowStats stats = window.StatsOver(20.0, end);
  EXPECT_EQ(stats.count, static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_DOUBLE_EQ(stats.sum, kWriters * kPerWriter);
  EXPECT_EQ(window.MergedOver(20.0, end).counts,
            (std::vector<uint64_t>{0, kWriters * kPerWriter, 0}));
}

// ----------------------------------------------------------------- config

JsonValue MustParse(const std::string& text) {
  Result<JsonValue> doc = JsonValue::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

TEST(SloConfigTest, ParsesRulesAndFillsDefaults) {
  Result<std::vector<AlertRule>> rules = ParseSloConfig(MustParse(R"({
    "schema": "ppdp.slo.v1",
    "rules": [
      {"name": "avail", "signal": "availability", "severity": "page",
       "objective": 0.99, "burn_rate": 6.0},
      {"name": "lat.p95", "signal": "latency", "quantile": 0.95, "threshold_ms": 250},
      {"name": "tenant-burn", "signal": "ledger_burn", "severity": "page",
       "horizon_s": 300, "fast_window_s": 30, "slow_window_s": 300}
    ]})"));
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 3u);

  EXPECT_EQ((*rules)[0].signal, AlertRule::Signal::kAvailability);
  EXPECT_EQ((*rules)[0].severity, AlertRule::Severity::kPage);
  EXPECT_DOUBLE_EQ((*rules)[0].objective, 0.99);
  EXPECT_DOUBLE_EQ((*rules)[0].fast_window_seconds, 60.0);   // default
  EXPECT_DOUBLE_EQ((*rules)[0].slow_window_seconds, 600.0);  // default

  EXPECT_EQ((*rules)[1].signal, AlertRule::Signal::kLatency);
  EXPECT_EQ((*rules)[1].severity, AlertRule::Severity::kTicket);  // default
  EXPECT_DOUBLE_EQ((*rules)[1].threshold, 0.25);  // threshold_ms -> seconds

  EXPECT_EQ((*rules)[2].signal, AlertRule::Signal::kLedgerBurn);
  EXPECT_DOUBLE_EQ((*rules)[2].horizon_seconds, 300.0);
  EXPECT_DOUBLE_EQ((*rules)[2].fast_window_seconds, 30.0);
}

TEST(SloConfigTest, RejectsMalformedConfigs) {
  auto rejects = [](const std::string& text) {
    Result<std::vector<AlertRule>> rules = ParseSloConfig(MustParse(text));
    EXPECT_FALSE(rules.ok()) << text;
  };
  // Wrong schema tag.
  rejects(R"({"schema": "ppdp.slo.v2", "rules": [{"name": "a"}]})");
  // No rules.
  rejects(R"({"schema": "ppdp.slo.v1", "rules": []})");
  // Unknown signal.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "signal": "uptime"}]})");
  // Unknown severity.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "severity": "critical"}]})");
  // Inverted windows.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "fast_window_s": 600, "slow_window_s": 60}]})");
  // Name grammar (spaces).
  rejects(R"({"schema": "ppdp.slo.v1", "rules": [{"name": "bad name"}]})");
  // Duplicate names.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a"}, {"name": "a"}]})");
  // Latency rule without a positive threshold.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "signal": "latency"}]})");
  // Availability objective out of range.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "signal": "availability", "objective": 1.5}]})");
}

TEST(SloConfigTest, DefaultRulesAreValidAndCoverEverySignal) {
  const std::vector<AlertRule> rules = DefaultSloRules();
  ASSERT_EQ(rules.size(), 4u);
  bool saw[4] = {false, false, false, false};
  for (const AlertRule& rule : rules) saw[static_cast<int>(rule.signal)] = true;
  EXPECT_TRUE(saw[0] && saw[1] && saw[2] && saw[3]);
}

// ----------------------------------------------------------------- engine

/// One availability rule tuned so a scripted timeline walks the whole
/// pending -> firing -> resolved lifecycle in ~30 scripted seconds.
SloEngine::Options ScriptedEngineOptions(double* now) {
  AlertRule rule;
  rule.name = "avail";
  rule.signal = AlertRule::Signal::kAvailability;
  rule.severity = AlertRule::Severity::kPage;
  rule.fast_window_seconds = 10.0;
  rule.slow_window_seconds = 60.0;
  rule.for_seconds = 5.0;
  rule.resolve_seconds = 10.0;
  rule.min_count = 1;
  rule.objective = 0.9;  // 10% error budget
  rule.burn_rate = 2.0;  // breach at >= 20% errors

  SloEngine::Options options;
  options.rules = {rule};
  options.clock = [now] { return *now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;  // keep the global registry golden-clean
  return options;
}

/// Replays the scripted outage and serializes every transition; the alert
/// timeline must be byte-identical no matter the execution width.
std::string RunScriptedTimeline() {
  double now = 0.0;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(ScriptedEngineOptions(&now));
  if (!engine.ok()) return "";  // the lifecycle test asserts creation works

  std::string serialized;
  auto evaluate = [&] {
    for (const AlertTransition& transition : (*engine)->Evaluate()) {
      serialized += transition.ToJson().Dump();
      serialized += "\n";
    }
  };

  for (int t = 1; t <= 4; ++t) {  // healthy traffic
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 5.0;
  evaluate();  // nothing breaches
  for (int t = 6; t <= 10; ++t) {  // outage: every request 5xx
    now = t;
    (*engine)->RecordRequest(500, 0.01);
  }
  now = 10.0;
  evaluate();  // breach in both windows -> pending
  now = 12.0;
  evaluate();  // held 2s < for 5s: still pending, silent
  now = 16.0;
  (*engine)->RecordRequest(200, 0.01);  // recovery begins
  evaluate();                           // held 6s >= 5s -> firing
  for (int t = 17; t <= 20; ++t) {
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 20.0;
  evaluate();  // fast window clean again: clear hold starts
  now = 25.0;
  evaluate();  // cleared 5s < resolve 10s: still firing, silent
  now = 31.0;
  evaluate();  // cleared 11s >= 10s -> resolved
  return serialized;
}

TEST(SloEngineTest, ScriptedTimelineWalksTheAlertLifecycle) {
  double now = 0.0;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(ScriptedEngineOptions(&now));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<AlertTransition> all;
  auto evaluate = [&] {
    std::vector<AlertTransition> batch = (*engine)->Evaluate();
    all.insert(all.end(), batch.begin(), batch.end());
  };

  for (int t = 1; t <= 4; ++t) {
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 5.0;
  evaluate();
  EXPECT_TRUE(all.empty());
  EXPECT_EQ((*engine)->WorstFiringSeverity(), 0);

  for (int t = 6; t <= 10; ++t) {
    now = t;
    (*engine)->RecordRequest(500, 0.01);
  }
  now = 10.0;
  evaluate();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].from, AlertState::kInactive);
  EXPECT_EQ(all[0].to, AlertState::kPending);
  EXPECT_DOUBLE_EQ(all[0].t_seconds, 10.0);
  EXPECT_EQ((*engine)->WorstFiringSeverity(), 0);  // pending does not page

  now = 12.0;
  evaluate();
  EXPECT_EQ(all.size(), 1u);  // hold not yet met: no new transition

  now = 16.0;
  (*engine)->RecordRequest(200, 0.01);
  evaluate();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].from, AlertState::kPending);
  EXPECT_EQ(all[1].to, AlertState::kFiring);
  EXPECT_GT(all[1].burn_fast, 1.0);  // burning well past the 2x rule
  EXPECT_EQ((*engine)->WorstFiringSeverity(), 2);
  ASSERT_EQ((*engine)->FiringAlerts().size(), 1u);
  EXPECT_EQ((*engine)->FiringAlerts()[0], "avail");

  for (int t = 17; t <= 20; ++t) {
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 20.0;
  evaluate();
  now = 25.0;
  evaluate();
  EXPECT_EQ(all.size(), 2u);  // clear hold not yet met
  EXPECT_EQ((*engine)->WorstFiringSeverity(), 2);

  now = 31.0;
  evaluate();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].from, AlertState::kFiring);
  EXPECT_EQ(all[2].to, AlertState::kResolved);
  EXPECT_DOUBLE_EQ(all[2].t_seconds, 31.0);
  EXPECT_EQ((*engine)->WorstFiringSeverity(), 0);
  EXPECT_EQ((*engine)->transitions_total(), 3u);

  // Every logged transition round-trips through the shared validator.
  for (const AlertTransition& transition : all) {
    EXPECT_TRUE(ValidateAlertLogRecord(transition.ToJson()).ok());
  }
}

TEST(SloEngineTest, TimelineIsByteIdenticalAcrossThreadWidths) {
  const std::string golden = RunScriptedTimeline();
  EXPECT_FALSE(golden.empty());
  for (int width : {1, 2, 4}) {
    ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(width).ok());
    EXPECT_EQ(RunScriptedTimeline(), golden) << "width " << width;
  }
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(0).ok());
}

TEST(SloEngineTest, LedgerBurnFiresBeforeExhaustionAndNamesTheTenant) {
  AlertRule rule;
  rule.name = "burn";
  rule.signal = AlertRule::Signal::kLedgerBurn;
  rule.severity = AlertRule::Severity::kPage;
  rule.fast_window_seconds = 10.0;
  rule.slow_window_seconds = 60.0;
  rule.for_seconds = 0.0;  // pages the moment both windows project exhaustion
  rule.min_count = 1;
  rule.horizon_seconds = 600.0;

  double now = 0.0;
  SloEngine::Options options;
  options.rules = {rule};
  options.clock = [&now] { return now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Tenant "acme" burns 0.3 eps/s against a budget of 1.0: the fast window
  // projects exhaustion in ~3 seconds, far inside the 600 s horizon.
  double remaining = 1.0;
  for (int t = 1; t <= 3; ++t) {
    now = t;
    remaining -= 0.3;
    (*engine)->RecordSpend("acme", 0.3, remaining, 1.0);
  }
  now = 3.0;
  std::vector<AlertTransition> transitions = (*engine)->Evaluate();
  ASSERT_EQ(transitions.size(), 2u);  // for_s = 0: pending + firing together
  EXPECT_EQ(transitions[0].to, AlertState::kPending);
  EXPECT_EQ(transitions[1].to, AlertState::kFiring);
  EXPECT_EQ(transitions[1].tenant, "acme");
  EXPECT_EQ((*engine)->WorstFiringSeverity(), 2);
  ASSERT_EQ((*engine)->FiringAlerts().size(), 1u);
  EXPECT_EQ((*engine)->FiringAlerts()[0], "burn/acme");

  bool found = false;
  for (const SloAttainment& slo : (*engine)->Attainment()) {
    if (slo.rule != "burn") continue;
    found = true;
    EXPECT_EQ(slo.tenant, "acme");
    EXPECT_FALSE(slo.met);
    EXPECT_LE(slo.attained, rule.horizon_seconds);  // projected TTE
  }
  EXPECT_TRUE(found);
}

TEST(SloEngineTest, EvaluateIfDueIsSingleFlight) {
  // A scripted clock that, while `hold` is set, parks every reader until
  // released: the first caller past the single-flight guard is held
  // mid-evaluation and every other caller must return at once instead of
  // queueing behind it.
  std::mutex mutex;
  std::condition_variable cv;
  bool hold = true;
  int held_readers = 0;
  double now = 10.0;
  SloEngine::Options options = ScriptedEngineOptions(nullptr);
  options.eval_period_seconds = 1.0;
  options.clock = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (hold) {
      ++held_readers;
      cv.notify_all();
      cv.wait(lock, [&] { return !hold; });
    }
    return now;
  };
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::thread holder([&] { (*engine)->EvaluateIfDue(); });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return held_readers == 1; });
  }

  // N threads released together at one instant, all while the evaluation
  // is held: every one returns without reading the clock.
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::atomic<int> returned{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kThreads; ++i) {
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      (*engine)->EvaluateIfDue();
      returned.fetch_add(1);
    });
  }
  go.store(true);
  for (int i = 0; i < 1000 && returned.load() < kThreads; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(returned.load(), kThreads) << "callers queued behind the held evaluation";
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(held_readers, 1) << "only the held caller may get past the guard";
    hold = false;
  }
  cv.notify_all();
  for (std::thread& caller : callers) caller.join();
  holder.join();

  // The held call was the one evaluation: it stamped the instant, and the
  // period now throttles the next callers at that same instant.
  EXPECT_DOUBLE_EQ((*engine)->AlertzDocument().GetNumberOr("t_seconds", -1.0), 10.0);
  now = 10.5;
  (*engine)->EvaluateIfDue();
  EXPECT_DOUBLE_EQ((*engine)->AlertzDocument().GetNumberOr("t_seconds", -1.0), 10.0);
  now = 11.0;
  (*engine)->EvaluateIfDue();
  EXPECT_DOUBLE_EQ((*engine)->AlertzDocument().GetNumberOr("t_seconds", -1.0), 11.0);
}

TEST(SloEngineTest, AlertzAndSlozDocumentsCarryTheirSchemas) {
  double now = 5.0;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(ScriptedEngineOptions(&now));
  ASSERT_TRUE(engine.ok());
  (*engine)->RecordRequest(200, 0.01);
  (*engine)->Evaluate();

  JsonValue alertz = (*engine)->AlertzDocument();
  EXPECT_EQ(alertz.GetStringOr("schema", ""), "ppdp.alertz.v1");
  const JsonValue* rules = alertz.Find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_TRUE(rules->is_array());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ(rules->at(0).GetStringOr("rule", ""), "avail");

  JsonValue sloz = (*engine)->SlozDocument();
  EXPECT_EQ(sloz.GetStringOr("schema", ""), "ppdp.sloz.v1");
  ASSERT_NE(sloz.Find("slos"), nullptr);
}

TEST(SloEngineTest, WarmEvaluateAllocatesNothing) {
  double now = 0.0;
  SloEngine::Options options;  // the default rules
  options.clock = [&now] { return now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  for (int second = 0; second < 120; ++second) {
    now = second + 0.5;
    for (int i = 0; i < 5; ++i) {
      (*engine)->RecordRequest(i == 0 && second % 30 == 0 ? 503 : 200, 0.001 * (1 + i));
      (*engine)->RecordQueueDepth(0.05 * i);
    }
    for (int t = 0; t < 4; ++t) {
      (*engine)->RecordSpend("tenant" + std::to_string(t), 0.01, 100.0 - 0.01 * second, 100.0);
    }
  }
  const uint64_t cold = ThreadAllocBytes();
  EXPECT_TRUE((*engine)->Evaluate().empty());
  EXPECT_GT(ThreadAllocBytes(), cold) << "the first Evaluate makes its instances and caches";

  now = 119.75;  // same bucket, no new tenant, nothing recorded since
  const uint64_t before = ThreadAllocBytes();
  const std::vector<AlertTransition> transitions = (*engine)->Evaluate();
  const uint64_t allocated = ThreadAllocBytes() - before;
  EXPECT_TRUE(transitions.empty());
  EXPECT_EQ(allocated, 0u);
}

TEST(SloEngineTest, AlertzInputsKeepTheirFieldsInEveryState) {
  auto make_rule = [](const char* name, AlertRule::Signal signal) {
    AlertRule rule;
    rule.name = name;
    rule.signal = signal;
    rule.fast_window_seconds = 10.0;
    rule.slow_window_seconds = 60.0;
    rule.for_seconds = 0.0;
    rule.min_count = 3;
    return rule;
  };
  AlertRule avail = make_rule("avail", AlertRule::Signal::kAvailability);
  avail.objective = 0.9;
  avail.burn_rate = 2.0;
  AlertRule lat = make_rule("lat", AlertRule::Signal::kLatency);
  lat.quantile = 0.5;
  lat.threshold = 0.1;
  AlertRule queue = make_rule("queue", AlertRule::Signal::kQueue);
  queue.threshold = 0.5;
  AlertRule burn = make_rule("burn", AlertRule::Signal::kLedgerBurn);
  burn.min_count = 1;
  burn.severity = AlertRule::Severity::kPage;

  double now = 0.0;
  SloEngine::Options options;
  options.rules = {avail, lat, queue, burn};
  options.clock = [&now] { return now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(std::move(options));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  for (int t = 1; t <= 4; ++t) {
    now = t;
    (*engine)->RecordRequest(t == 4 ? 500 : 200, 0.25);
    (*engine)->RecordQueueDepth(0.25 * t);
  }
  now = 2.0;
  (*engine)->RecordSpend("acme", 0.25, 0.75, 1.0);
  now = 3.0;
  (*engine)->RecordSpend("acme", 0.25, 0.5, 1.0);
  now = 5.0;
  (*engine)->RecordSpend("idle", 0.125, 0.875, 1.0);
  now = 24.0;
  (*engine)->RecordSpend("acme", 0.25, 0.25, 1.0);
  now = 25.0;
  (*engine)->RecordRequest(200, 0.5);
  (*engine)->RecordQueueDepth(0.25);

  // t = 30: one event in each fast window (below min_count: not yet
  // evaluable), enough in each slow window; "idle" has spent nothing in
  // its fast window.
  now = 30.0;
  (*engine)->Evaluate();
  EXPECT_EQ((*engine)->AlertzDocument().Dump(),
            R"({"schema":"ppdp.alertz.v1","t_seconds":30,"transitions_total":2,)"
            R"("rules":[{"rule":"avail","signal":"availability","severity":"ticket",)"
            R"("fast_window_s":10,"slow_window_s":60,"instances":[{"state":"inactive",)"
            R"("since_s":0,"burn_fast":0,"burn_slow":2.0000000000000004,)"
            R"("inputs_fast":{"requests":1,"errors_5xx":0},"inputs_slow":{"requests":5,)"
            R"("errors_5xx":1,"error_ratio":0.20000000000000001}}]},{"rule":"lat",)"
            R"("signal":"latency","severity":"ticket","fast_window_s":10,"slow_window_s":60,)"
            R"("instances":[{"state":"inactive","since_s":0,"burn_fast":0,"burn_slow":2.5,)"
            R"("inputs_fast":{"requests":1},"inputs_slow":{"requests":5,)"
            R"("quantile_seconds":0.25}}]},{"rule":"queue","signal":"queue",)"
            R"("severity":"ticket","fast_window_s":10,"slow_window_s":60,)"
            R"("instances":[{"state":"inactive","since_s":0,"burn_fast":0,)"
            R"("burn_slow":1.1000000000000001,"inputs_fast":{"samples":1},)"
            R"("inputs_slow":{"samples":5,"mean_depth_ratio":0.55000000000000004}}]},)"
            R"({"rule":"burn","signal":"ledger_burn","severity":"page","fast_window_s":10,)"
            R"("slow_window_s":60,"instances":[{"tenant":"acme","state":"firing","since_s":30,)"
            R"("burn_fast":60,"burn_slow":30,"inputs_fast":{"spends":1,)"
            R"("remaining_epsilon":0.25,"spend_rate":0.025000000000000001,)"
            R"("time_to_exhaustion_s":10},"inputs_slow":{"spends":3,"remaining_epsilon":0.25,)"
            R"("spend_rate":0.012500000000000001,"time_to_exhaustion_s":20}},{"tenant":"idle",)"
            R"("state":"inactive","since_s":0,"burn_fast":0,"burn_slow":1.4285714285714286,)"
            R"("inputs_fast":{"spends":0,"remaining_epsilon":0.875},"inputs_slow":{"spends":1,)"
            R"("remaining_epsilon":0.875,"spend_rate":0.0020833333333333333,)"
            R"("time_to_exhaustion_s":420}}]}]})");
  // t = 100: every window is empty again.
  now = 100.0;
  (*engine)->Evaluate();
  EXPECT_EQ((*engine)->AlertzDocument().Dump(),
            R"({"schema":"ppdp.alertz.v1","t_seconds":100,"transitions_total":2,)"
            R"("rules":[{"rule":"avail","signal":"availability","severity":"ticket",)"
            R"("fast_window_s":10,"slow_window_s":60,"instances":[{"state":"inactive",)"
            R"("since_s":0,"burn_fast":0,"burn_slow":0,"inputs_fast":{"requests":0,)"
            R"("errors_5xx":0},"inputs_slow":{"requests":0,"errors_5xx":0}}]},{"rule":"lat",)"
            R"("signal":"latency","severity":"ticket","fast_window_s":10,"slow_window_s":60,)"
            R"("instances":[{"state":"inactive","since_s":0,"burn_fast":0,"burn_slow":0,)"
            R"("inputs_fast":{"requests":0},"inputs_slow":{"requests":0}}]},{"rule":"queue",)"
            R"("signal":"queue","severity":"ticket","fast_window_s":10,"slow_window_s":60,)"
            R"("instances":[{"state":"inactive","since_s":0,"burn_fast":0,"burn_slow":0,)"
            R"("inputs_fast":{"samples":0},"inputs_slow":{"samples":0}}]},{"rule":"burn",)"
            R"("signal":"ledger_burn","severity":"page","fast_window_s":10,"slow_window_s":60,)"
            R"("instances":[{"tenant":"acme","state":"firing","since_s":30,"burn_fast":0,)"
            R"("burn_slow":0,"inputs_fast":{"spends":0,"remaining_epsilon":0.25},)"
            R"("inputs_slow":{"spends":0,"remaining_epsilon":0.25}},{"tenant":"idle",)"
            R"("state":"inactive","since_s":0,"burn_fast":0,"burn_slow":0,)"
            R"("inputs_fast":{"spends":0,"remaining_epsilon":0.875},"inputs_slow":{"spends":0,)"
            R"("remaining_epsilon":0.875}}]}]})");
}

TEST(SloEngineTest, TransitionsAppendToTheAlertLog) {
  const std::string path = TempPath("slo_alertlog.jsonl");
  std::remove(path.c_str());

  double now = 0.0;
  SloEngine::Options options = ScriptedEngineOptions(&now);
  options.alert_log = path;
  {
    Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (int t = 1; t <= 10; ++t) {
      now = t;
      (*engine)->RecordRequest(500, 0.01);
    }
    now = 10.0;
    (*engine)->Evaluate();  // -> pending
    now = 16.0;
    (*engine)->Evaluate();  // -> firing
    ASSERT_NE((*engine)->alert_log(), nullptr);
    EXPECT_EQ((*engine)->alert_log()->lines_written(), 2u);
  }

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(file, line)) {
    ++lines;
    Result<JsonValue> doc = JsonValue::Parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    EXPECT_TRUE(ValidateAlertLogRecord(*doc).ok()) << line;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// -------------------------------------------------------- alert-log schema

TEST(ValidateAlertLogRecordTest, AcceptsLegalAndRejectsIllegalRecords) {
  AlertTransition transition;
  transition.t_seconds = 12.5;
  transition.rule = "avail";
  transition.from = AlertState::kPending;
  transition.to = AlertState::kFiring;
  transition.severity = AlertRule::Severity::kPage;
  transition.burn_fast = 3.0;
  transition.burn_slow = 2.0;
  EXPECT_TRUE(ValidateAlertLogRecord(transition.ToJson()).ok());

  JsonValue bad_schema = transition.ToJson();
  bad_schema.Set("schema", JsonValue::String("ppdp.access.v1"));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_schema).ok());

  JsonValue bad_time = transition.ToJson();
  bad_time.Set("t_seconds", JsonValue::Number(-1.0));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_time).ok());

  JsonValue no_rule = transition.ToJson();
  no_rule.Set("rule", JsonValue::String(""));
  EXPECT_FALSE(ValidateAlertLogRecord(no_rule).ok());

  JsonValue bad_severity = transition.ToJson();
  bad_severity.Set("severity", JsonValue::String("critical"));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_severity).ok());

  // inactive -> firing skips pending: not a legal pair.
  JsonValue bad_pair = transition.ToJson();
  bad_pair.Set("from", JsonValue::String("inactive"));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_pair).ok());

  JsonValue bad_burn = transition.ToJson();
  bad_burn.Set("burn_fast", JsonValue::Number(-0.5));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_burn).ok());
}

// ------------------------------------------------------------ rotating log

TEST(RotatingLogTest, ConcurrentWritersCrossingRotationLoseNothing) {
  const std::string path = TempPath("slo_rotate.jsonl");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  // ~8 KB of records against a 6 KB threshold: exactly one rotation, so
  // both generations together must hold every record exactly once.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50;
  RotatingJsonlLog log;
  ASSERT_TRUE(log.Open(path, 6 * 1024).ok());
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        JsonValue doc = JsonValue::Object();
        doc.Set("writer", JsonValue::Number(w));
        doc.Set("seq", JsonValue::Number(i));
        doc.Set("pad", JsonValue::String("xxxxxxxxxxxxxxxx"));
        ASSERT_TRUE(log.Append(doc.Dump()).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  log.Close();
  EXPECT_EQ(log.lines_written(), static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(log.rotations(), 1u);

  // Exactly-once across <path> + <path>.1, every line a complete document.
  std::vector<std::vector<bool>> seen(kWriters, std::vector<bool>(kPerWriter, false));
  size_t total = 0;
  for (const std::string& generation : {path + ".1", path}) {
    std::ifstream file(generation);
    ASSERT_TRUE(file.good()) << generation;
    std::string line;
    while (std::getline(file, line)) {
      Result<JsonValue> doc = JsonValue::Parse(line);
      ASSERT_TRUE(doc.ok()) << "torn line: " << line;
      const int w = static_cast<int>(doc->GetNumberOr("writer", -1.0));
      const int i = static_cast<int>(doc->GetNumberOr("seq", -1.0));
      ASSERT_GE(w, 0);
      ASSERT_LT(w, kWriters);
      ASSERT_GE(i, 0);
      ASSERT_LT(i, kPerWriter);
      EXPECT_FALSE(seen[static_cast<size_t>(w)][static_cast<size_t>(i)])
          << "duplicate writer " << w << " seq " << i;
      seen[static_cast<size_t>(w)][static_cast<size_t>(i)] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kWriters * kPerWriter));
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

}  // namespace
}  // namespace ppdp::obs
