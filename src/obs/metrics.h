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
#include "common/table.h"

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

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]; one
/// implicit overflow bucket counts the rest. Tracks count/sum/min/max for
/// exact means, and keeps the first kExactSampleCap raw observations so the
/// latency percentiles published in run reports are *exact* for every
/// realistic bench population (26 benches observe well under the cap) and
/// only degrade to bucket interpolation beyond it. Thread-safe (mutex;
/// observations are rare enough that contention is irrelevant here).
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
  /// always equals count(). (bucket_counts() is per-bucket, which is what
  /// the JSON exports keep emitting; the text exposition needs `le`
  /// cumulative semantics.)
  std::vector<uint64_t> CumulativeBucketCounts() const;
  /// Bucket-interpolated quantile estimate (BucketQuantile), q in [0, 1].
  double ApproxQuantile(double q) const;
  /// Best available quantile: exact (linear interpolation over the retained
  /// raw samples) while count() <= kExactSampleCap, bucket-interpolated
  /// after; 0 when empty, the sample itself when count() == 1.
  double Quantile(double q) const;
  void Reset();

  /// Raw observations retained for exact quantiles.
  static constexpr size_t kExactSampleCap = 4096;

 private:
  double QuantileLocked(double q) const;  // requires mutex_ held

  std::vector<double> bounds_;
  mutable std::mutex mutex_;
  std::vector<uint64_t> counts_;  ///< bounds_.size() + 1 entries
  std::vector<double> samples_;   ///< first kExactSampleCap observations
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile q (clamped to [0, 1]) of a bucketed population, interpolated
/// linearly inside the bucket that covers rank q * count. `counts[i]` counts
/// observations <= bounds[i] (and above the previous bound); the final entry
/// is the overflow bucket. The covering bucket's edges are first clamped to
/// the observed [min, max], so a population sitting inside one wide bucket
/// interpolates over where it actually lies. 0 when count == 0, max when
/// count == 1. Histogram and SlidingWindow both estimate through it.
double BucketQuantile(const std::vector<double>& bounds, const std::vector<uint64_t>& counts,
                      uint64_t count, double min, double max, double q);

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

  /// One row per metric: metric, type, count, value, mean, p50, p95, p99,
  /// max. Counters/gauges fill count/value only. Rows are name-sorted.
  Table Snapshot() const;

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
  std::vector<std::pair<std::string, double>> GaugeValues() const;

  /// Compact JSON object keyed by metric name; histograms include bucket
  /// bounds and counts.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

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
