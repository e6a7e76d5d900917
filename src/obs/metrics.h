#ifndef PPDP_OBS_METRICS_H_
#define PPDP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ppdp::obs {

/// Monotonically increasing event count. Lock-free; safe to increment from
/// any thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, remaining budget, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucketed distribution over fixed bounds: counts[i] counts observations
/// <= bounds[i] (and above bounds[i - 1]); the final entry is the overflow
/// bucket. Keeps count/sum/min/max alongside for exact means and observed
/// extremes; with no bounds it keeps only those (and allocates nothing).
/// Not synchronized: Histogram and every SlidingWindow ring slot hold one
/// under their own mutex, and pass in the bounds they own.
struct BucketAccumulator {
  explicit BucketAccumulator(size_t num_bounds = 0) { Reset(num_bounds); }

  void Add(const std::vector<double>& bounds, double value);
  /// Folds `other` (same bounds) into this one.
  void Merge(const BucketAccumulator& other);
  /// Empties the accumulator and sizes it for `num_bounds` bounds, reusing
  /// its storage.
  void Reset(size_t num_bounds);

  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when empty
  double max = 0.0;  ///< 0 when empty
};

/// Quantile q (clamped to [0, 1]) of a bucketed population, interpolated
/// linearly inside the bucket that covers rank q * count. The covering
/// bucket's edges are first clamped to the observed [min, max], so a
/// population sitting inside one wide bucket interpolates over where it
/// actually lies. 0 when empty, max when count == 1. The one quantile
/// estimator of Histogram and SlidingWindow.
double BucketQuantile(const std::vector<double>& bounds, const BucketAccumulator& buckets,
                      double q);

/// Fixed-bucket histogram: a BucketAccumulator under a mutex. Quantiles are
/// bucket-interpolated (BucketQuantile); callers that need exact
/// percentiles keep their own samples (see QuantileOfSorted). Thread-safe
/// (observations are rare enough that contention is irrelevant here).
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const;
  double sum() const;
  double mean() const;  ///< 0 when empty
  double min() const;   ///< 0 when empty
  double max() const;   ///< 0 when empty
  const std::vector<double>& bounds() const { return bounds_; }
  /// bucket_counts()[i] pairs with bounds()[i]; the final entry is the
  /// overflow bucket.
  std::vector<uint64_t> bucket_counts() const;
  /// Prometheus-style cumulative counts: entry i is the number of
  /// observations <= bounds()[i]; the final entry is the "+Inf" bucket and
  /// always equals count(). (bucket_counts() is per-bucket; the text
  /// exposition needs `le` cumulative semantics.)
  std::vector<uint64_t> CumulativeBucketCounts() const;
  /// BucketQuantile over the buckets, q in [0, 1].
  double Quantile(double q) const;
  void Reset();

 private:
  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  BucketAccumulator buckets_;
};

/// Default latency buckets in seconds: 10µs .. 10s, one per decade plus
/// half-decades — wide enough for both per-iteration and per-phase timings.
const std::vector<double>& DefaultLatencyBoundsSeconds();

/// Maps an internal metric name (dotted, e.g. "classify.ica.rounds") onto
/// the Prometheus name grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every invalid
/// character becomes '_', and a leading digit gets a '_' prefix. Empty
/// input becomes "_".
std::string SanitizeMetricName(std::string_view name);

/// Process-wide named-metric registry. Lookup creates on first use and
/// returns a stable reference (entries are never removed; Reset() zeroes
/// values but keeps registrations, so cached references stay valid).
///
///   static Counter& sweeps = MetricsRegistry::Global().counter("ica.sweeps");
///   sweeps.Increment();
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls with the same
  /// name ignore `bounds`.
  Histogram& histogram(const std::string& name, const std::vector<double>& bounds = {});

  /// Structured read-outs for RunReport serialization (name-sorted).
  struct HistogramSummary {
    std::string name;
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  std::vector<HistogramSummary> HistogramSummaries() const;
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;

  /// Prometheus text exposition format 0.0.4: every metric gets a
  /// `# HELP`/`# TYPE` pair followed by its samples, with names passed
  /// through SanitizeMetricName. Histograms render cumulative
  /// `_bucket{le="..."}` series (terminated by `le="+Inf"`) plus `_sum` and
  /// `_count`. When two internal names sanitize to the same exposition
  /// name, the first (in name-sorted order) wins and later ones are
  /// skipped — duplicate series would make the whole scrape invalid.
  std::string ToPrometheus() const;

  /// Zeroes every metric (registrations survive). For tests and benches.
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Strict structural check of a Prometheus text-exposition-0.0.4 document,
/// as produced by MetricsRegistry::ToPrometheus and consumed by a scraper:
/// every sample name obeys the name grammar and is preceded by `# HELP` +
/// `# TYPE` lines, a metric's samples are contiguous and typed at most
/// once, sample values parse as doubles (NaN/+Inf/-Inf spellings allowed),
/// and each histogram's `_bucket{le=...}` series is cumulative
/// (non-decreasing), ends at `le="+Inf"`, and agrees with its `_sum` /
/// `_count` samples. Shared by telemetry_test and the `ppdp_stat prom` CI
/// gate so a scrape that Prometheus would reject fails fast.
Status ValidatePrometheusText(std::string_view text);

}  // namespace ppdp::obs

#endif  // PPDP_OBS_METRICS_H_
