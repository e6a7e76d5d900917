#include "obs/metrics.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "common/logging.h"

namespace ppdp::obs {

void BucketAccumulator::Add(const std::vector<double>& bounds, double value) {
  if (!bounds.empty()) {
    ++counts[std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin()];
  }
  if (count == 0 || value < min) min = value;
  if (count == 0 || value > max) max = value;
  ++count;
  sum += value;
}

void BucketAccumulator::Merge(const BucketAccumulator& other) {
  if (other.count == 0) return;
  for (size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

void BucketAccumulator::Reset(size_t num_bounds) {
  counts.assign(num_bounds == 0 ? 0 : num_bounds + 1, 0);
  count = 0;
  sum = 0.0;
  min = 0.0;
  max = 0.0;
}

double BucketQuantile(const std::vector<double>& bounds, const BucketAccumulator& buckets,
                      double q) {
  const uint64_t count = buckets.count;
  const double min = buckets.min;
  const double max = buckets.max;
  if (count == 0) return 0.0;
  if (count == 1) return max;
  const double rank = std::min(std::max(q, 0.0), 1.0) * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.counts.size(); ++b) {
    if (buckets.counts[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets.counts[b];
    if (static_cast<double>(cumulative) >= rank) {
      double lo = b == 0 ? std::min(min, bounds[0]) : bounds[b - 1];
      double hi = b < bounds.size() ? bounds[b] : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi <= lo) return std::min(std::max(lo, min), max);
      const double within = (rank - before) / static_cast<double>(buckets.counts[b]);
      return lo + within * (hi - lo);
    }
  }
  return max;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size()) {
  PPDP_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  for (size_t i = 1; i < bounds_.size(); ++i) {
    PPDP_CHECK(bounds_[i] > bounds_[i - 1]) << "bucket bounds must be strictly increasing";
  }
}

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  buckets_.Add(bounds_, value);
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.count;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.sum;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.count == 0 ? 0.0 : buckets_.sum / static_cast<double>(buckets_.count);
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.min;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.max;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.counts;
}

std::vector<uint64_t> Histogram::CumulativeBucketCounts() const {
  std::vector<uint64_t> cumulative = bucket_counts();
  for (size_t i = 1; i < cumulative.size(); ++i) cumulative[i] += cumulative[i - 1];
  return cumulative;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return BucketQuantile(bounds_, buckets_, q);
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  buckets_.Reset(bounds_.size());
}

std::string SanitizeMetricName(std::string_view name) {
  auto valid = [](char c, bool first) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') return true;
    return !first && c >= '0' && c <= '9';
  };
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty()) return "_";
  if (!valid(name[0], /*first=*/true) && valid(name[0], /*first=*/false)) out += '_';
  for (size_t i = 0; i < name.size(); ++i) {
    out += valid(name[i], /*first=*/false) ? name[i] : '_';
  }
  return out;
}

const std::vector<double>& DefaultLatencyBoundsSeconds() {
  static const std::vector<double> bounds = {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
                                             3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0};
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // intentionally leaked
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(bounds.empty() ? DefaultLatencyBoundsSeconds() : bounds);
  }
  return *slot;
}

std::vector<MetricsRegistry::HistogramSummary> MetricsRegistry::HistogramSummaries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HistogramSummary> rows;
  rows.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSummary row;
    row.name = name;
    row.count = h->count();
    row.mean = h->mean();
    row.min = h->min();
    row.max = h->max();
    row.p50 = h->Quantile(0.5);
    row.p95 = h->Quantile(0.95);
    row.p99 = h->Quantile(0.99);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, uint64_t>> rows;
  rows.reserve(counters_.size());
  for (const auto& [name, c] : counters_) rows.emplace_back(name, c->value());
  return rows;
}

namespace {

/// Prometheus sample-value formatting: shortest %g form wide enough to
/// round-trip the counts/bounds this repo emits, with the spec's spellings
/// for the non-finite values.
std::string PromDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", v);
  return buffer;
}

void AppendHelpType(std::string& out, const std::string& name, const std::string& original,
                    const char* type) {
  out += "# HELP " + name + " ppdp metric " + original + "\n";
  out += "# TYPE " + name + " ";
  out += type;
  out += "\n";
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::set<std::string> emitted;
  auto claim = [&emitted](const std::string& name) { return emitted.insert(name).second; };
  for (const auto& [name, c] : counters_) {
    const std::string prom = SanitizeMetricName(name);
    if (!claim(prom)) continue;
    AppendHelpType(out, prom, name, "counter");
    out += prom + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string prom = SanitizeMetricName(name);
    if (!claim(prom)) continue;
    AppendHelpType(out, prom, name, "gauge");
    out += prom + " " + PromDouble(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string prom = SanitizeMetricName(name);
    if (!claim(prom)) continue;
    AppendHelpType(out, prom, name, "histogram");
    const std::vector<double>& bounds = h->bounds();
    // One consistent read: cumulative counts and the matching total. The
    // +Inf bucket is the last cumulative entry, so _count always agrees
    // with the bucket series even if observations land mid-render.
    std::vector<uint64_t> cumulative = h->CumulativeBucketCounts();
    for (size_t i = 0; i < bounds.size(); ++i) {
      out += prom + "_bucket{le=\"" + PromDouble(bounds[i]) + "\"} " +
             std::to_string(cumulative[i]) + "\n";
    }
    const uint64_t total = cumulative.empty() ? 0 : cumulative.back();
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(total) + "\n";
    out += prom + "_sum " + PromDouble(h->sum()) + "\n";
    out += prom + "_count " + std::to_string(total) + "\n";
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

namespace {

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  auto valid = [](char c, bool first) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') return true;
    return !first && c >= '0' && c <= '9';
  };
  for (size_t i = 0; i < name.size(); ++i) {
    if (!valid(name[i], i == 0)) return false;
  }
  return true;
}

bool ParsePromValue(std::string_view token, double* out) {
  if (token == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (token == "+Inf" || token == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (token.empty()) return false;
  std::string copy(token);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// Splits a `{...}` label block into (name, value) pairs; false on syntax
/// errors (unterminated strings, bad label names, missing '=').
bool ParseLabels(std::string_view block,
                 std::vector<std::pair<std::string, std::string>>* labels) {
  size_t i = 0;
  while (i < block.size()) {
    size_t eq = block.find('=', i);
    if (eq == std::string_view::npos) return false;
    std::string name(block.substr(i, eq - i));
    if (!IsValidMetricName(name) || name.find(':') != std::string::npos) return false;
    if (eq + 1 >= block.size() || block[eq + 1] != '"') return false;
    std::string value;
    size_t j = eq + 2;
    for (; j < block.size() && block[j] != '"'; ++j) {
      if (block[j] == '\\') {
        if (j + 1 >= block.size()) return false;
        ++j;
      }
      value += block[j];
    }
    if (j >= block.size()) return false;  // unterminated value
    labels->emplace_back(std::move(name), std::move(value));
    i = j + 1;
    if (i < block.size()) {
      if (block[i] != ',') return false;
      ++i;
    }
  }
  return true;
}

/// Per-histogram completeness bookkeeping while scanning samples.
struct HistogramSeries {
  std::vector<double> les;
  std::vector<double> bucket_values;
  bool has_sum = false;
  bool has_count = false;
  double count_value = 0.0;
};

}  // namespace

Status ValidatePrometheusText(std::string_view text) {
  if (text.empty()) return Status::Ok();  // an empty registry is a valid scrape
  if (text.back() != '\n') return Status::InvalidArgument("exposition must end with a newline");

  std::map<std::string, std::string> type_of;     // metric -> declared TYPE
  std::map<std::string, bool> has_help;           // metric -> HELP seen
  std::map<std::string, HistogramSeries> series;  // histogram bookkeeping
  std::vector<std::string> sample_order;          // metrics in first-sample order
  std::string current;                            // metric of the open sample block

  auto fail = [](size_t line_no, const std::string& why) {
    return Status::InvalidArgument("exposition line " + std::to_string(line_no) + ": " + why);
  };

  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    ++line_no;
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      bool is_help = line.rfind("# HELP ", 0) == 0;
      bool is_type = line.rfind("# TYPE ", 0) == 0;
      if (!is_help && !is_type) continue;  // free-form comment
      std::string_view rest = line.substr(7);
      size_t space = rest.find(' ');
      std::string name(rest.substr(0, space));
      if (!IsValidMetricName(name)) return fail(line_no, "bad metric name in comment: " + name);
      if (is_help) {
        if (has_help[name]) return fail(line_no, "duplicate HELP for " + name);
        has_help[name] = true;
      } else {
        std::string type(space == std::string_view::npos ? "" : rest.substr(space + 1));
        if (type != "counter" && type != "gauge" && type != "histogram" && type != "summary" &&
            type != "untyped") {
          return fail(line_no, "unknown TYPE '" + type + "' for " + name);
        }
        if (type_of.count(name)) return fail(line_no, "duplicate TYPE for " + name);
        for (const std::string& seen : sample_order) {
          if (seen == name) return fail(line_no, "TYPE for " + name + " after its samples");
        }
        type_of[name] = type;
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string_view::npos) return fail(line_no, "sample has no value");
    std::string sample_name(line.substr(0, name_end));
    if (!IsValidMetricName(sample_name)) {
      return fail(line_no, "bad sample name: " + sample_name);
    }

    std::vector<std::pair<std::string, std::string>> labels;
    size_t value_start = name_end;
    if (line[name_end] == '{') {
      size_t close = line.find('}', name_end);
      if (close == std::string_view::npos) return fail(line_no, "unterminated label block");
      if (!ParseLabels(line.substr(name_end + 1, close - name_end - 1), &labels)) {
        return fail(line_no, "malformed labels: " + sample_name);
      }
      value_start = close + 1;
    }
    while (value_start < line.size() && line[value_start] == ' ') ++value_start;
    std::string_view value_part = line.substr(value_start);
    size_t value_end = value_part.find(' ');
    double value = 0.0;
    if (!ParsePromValue(value_part.substr(0, value_end), &value)) {
      return fail(line_no, "unparseable value for " + sample_name);
    }
    if (value_end != std::string_view::npos) {
      // Optional timestamp: a (signed) integer of milliseconds.
      std::string_view ts = value_part.substr(value_end + 1);
      double ts_value = 0.0;
      if (!ParsePromValue(ts, &ts_value)) return fail(line_no, "bad timestamp");
    }

    // Resolve the declared metric this sample belongs to: exact name, or a
    // histogram child series (_bucket/_sum/_count).
    std::string metric = sample_name;
    bool is_bucket = false, is_sum = false, is_count = false;
    if (!type_of.count(metric)) {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        size_t len = std::char_traits<char>::length(suffix);
        if (sample_name.size() > len &&
            sample_name.compare(sample_name.size() - len, len, suffix) == 0) {
          std::string base = sample_name.substr(0, sample_name.size() - len);
          auto it = type_of.find(base);
          if (it != type_of.end() && (it->second == "histogram" || it->second == "summary")) {
            metric = base;
            is_bucket = suffix[1] == 'b';
            is_sum = suffix[1] == 's';
            is_count = suffix[1] == 'c';
            break;
          }
        }
      }
    }
    if (!type_of.count(metric)) return fail(line_no, "sample without TYPE: " + sample_name);
    if (!has_help[metric]) return fail(line_no, "sample without HELP: " + sample_name);
    const std::string& type = type_of[metric];
    const bool child_series = is_bucket || is_sum || is_count;
    if (type == "histogram" && !child_series) {
      return fail(line_no, "sample name does not match TYPE of " + metric);
    }
    if (child_series && type != "histogram" && type != "summary") {
      return fail(line_no, "child series on non-histogram metric " + metric);
    }

    if (metric != current) {
      for (const std::string& seen : sample_order) {
        if (seen == metric) {
          return fail(line_no, "samples of " + metric + " are not contiguous");
        }
      }
      sample_order.push_back(metric);
      current = metric;
    }

    if (type == "counter" && value < 0.0) return fail(line_no, "negative counter " + metric);
    if (type == "histogram") {
      HistogramSeries& h = series[metric];
      if (is_bucket) {
        double le = 0.0;
        bool found = false;
        for (const auto& [label_name, label_value] : labels) {
          if (label_name != "le") continue;
          if (!ParsePromValue(label_value, &le)) return fail(line_no, "bad le bucket bound");
          found = true;
        }
        if (!found) return fail(line_no, metric + "_bucket without an le label");
        if (!h.les.empty() && !(le > h.les.back())) {
          return fail(line_no, metric + " le bounds are not increasing");
        }
        if (!h.bucket_values.empty() && value < h.bucket_values.back()) {
          return fail(line_no, metric + " bucket counts are not cumulative");
        }
        h.les.push_back(le);
        h.bucket_values.push_back(value);
      } else if (is_sum) {
        h.has_sum = true;
      } else {
        h.has_count = true;
        h.count_value = value;
      }
    }
  }

  for (const auto& [metric, h] : series) {
    if (h.les.empty() || !std::isinf(h.les.back()) || h.les.back() < 0.0) {
      return Status::InvalidArgument("histogram " + metric + " lacks an le=\"+Inf\" bucket");
    }
    if (!h.has_sum || !h.has_count) {
      return Status::InvalidArgument("histogram " + metric + " lacks _sum/_count");
    }
    if (h.count_value != h.bucket_values.back()) {
      return Status::InvalidArgument("histogram " + metric +
                                     " _count disagrees with its +Inf bucket");
    }
  }
  return Status::Ok();
}

}  // namespace ppdp::obs
