#include "dp/aggregation.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "dp/mechanisms.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::dp {

std::vector<double> NoisyHistogram(const std::vector<int64_t>& data, size_t domain_size,
                                   double epsilon, Rng& rng) {
  PPDP_CHECK(domain_size >= 1);
  PPDP_CHECK(epsilon > 0.0);
  static obs::Counter& releases =
      obs::MetricsRegistry::Global().counter("dp.aggregation.histograms");
  releases.Increment();
  std::vector<double> histogram(domain_size, 0.0);
  for (int64_t v : data) {
    PPDP_CHECK(v >= 0 && static_cast<size_t>(v) < domain_size) << "value out of domain: " << v;
    histogram[static_cast<size_t>(v)] += 1.0;
  }
  LaplaceMechanism laplace(/*sensitivity=*/1.0, epsilon);
  for (double& count : histogram) count = std::max(0.0, laplace.Apply(count, rng));
  return histogram;
}

Result<RangeCountSketch> RangeCountSketch::Build(const std::vector<int64_t>& data,
                                                 size_t domain_size, double epsilon, Rng& rng) {
  if (domain_size < 1) return Status::InvalidArgument("empty domain");
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be positive");
  for (int64_t v : data) {
    if (v < 0 || static_cast<size_t>(v) >= domain_size) {
      return Status::InvalidArgument("value out of domain");
    }
  }

  obs::TraceSpan span(PPDP_SPAN_SITE("dp.aggregation.range_sketch_build"));
  RangeCountSketch sketch;
  sketch.domain_size_ = domain_size;
  sketch.padded_ = 1;
  while (sketch.padded_ < domain_size) sketch.padded_ <<= 1;
  sketch.levels_ = 1;
  for (size_t width = sketch.padded_; width > 1; width >>= 1) ++sketch.levels_;
  sketch.epsilon_ = epsilon;

  // Exact counts bottom-up, then per-level Laplace noise with ε / levels.
  sketch.tree_.resize(sketch.levels_);
  sketch.tree_[sketch.levels_ - 1].assign(sketch.padded_, 0.0);
  for (int64_t v : data) sketch.tree_[sketch.levels_ - 1][static_cast<size_t>(v)] += 1.0;
  for (size_t level = sketch.levels_ - 1; level > 0; --level) {
    const auto& below = sketch.tree_[level];
    auto& above = sketch.tree_[level - 1];
    above.assign(below.size() / 2, 0.0);
    for (size_t i = 0; i < above.size(); ++i) above[i] = below[2 * i] + below[2 * i + 1];
  }
  LaplaceMechanism laplace(/*sensitivity=*/1.0,
                           epsilon / static_cast<double>(sketch.levels_));
  for (auto& level : sketch.tree_) {
    for (double& count : level) count = laplace.Apply(count, rng);
  }
  return sketch;
}

Result<double> RangeCountSketch::RangeCount(int64_t lo, int64_t hi) const {
  if (lo > hi) return Status::InvalidArgument("empty range");
  if (lo < 0 || static_cast<size_t>(hi) >= domain_size_) {
    return Status::InvalidArgument("range out of domain");
  }
  // Canonical dyadic cover of [lo, hi] via an explicit stack: every fully
  // covered node contributes its noisy count; partially covered nodes
  // recurse. O(log padded_) nodes are summed.
  double total = 0.0;
  size_t l = static_cast<size_t>(lo);
  size_t r = static_cast<size_t>(hi) + 1;  // half-open
  struct Frame {
    size_t level;
    size_t node;
    size_t begin;
    size_t width;
  };
  std::vector<Frame> stack = {{0, 0, 0, padded_}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    size_t end = f.begin + f.width;  // half-open
    if (end <= l || f.begin >= r) continue;
    if (l <= f.begin && end <= r) {
      total += tree_[f.level][f.node];
      continue;
    }
    PPDP_CHECK(f.width > 1) << "leaf should be fully inside or outside";
    size_t half = f.width / 2;
    stack.push_back({f.level + 1, 2 * f.node, f.begin, half});
    stack.push_back({f.level + 1, 2 * f.node + 1, f.begin + half, half});
  }
  return total;
}

Result<int64_t> PrivateQuantile(const std::vector<int64_t>& data, size_t domain_size, double q,
                                double epsilon, Rng& rng) {
  if (domain_size < 1) return Status::InvalidArgument("empty domain");
  if (q < 0.0 || q > 1.0) return Status::InvalidArgument("q must be in [0,1]");
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be positive");
  if (data.empty()) return Status::InvalidArgument("no data");

  // utility(x) = -|#{v < x} - q n|; changing one record shifts the count by
  // at most 1, so the sensitivity is 1.
  std::vector<int64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const double target = q * static_cast<double>(data.size());
  std::vector<double> utilities(domain_size);
  for (size_t x = 0; x < domain_size; ++x) {
    auto below = std::lower_bound(sorted.begin(), sorted.end(), static_cast<int64_t>(x)) -
                 sorted.begin();
    utilities[x] = -std::fabs(static_cast<double>(below) - target);
  }
  return static_cast<int64_t>(ExponentialMechanism(utilities, epsilon, /*sensitivity=*/1.0,
                                                   rng));
}

double NoisyCount(size_t true_count, double epsilon, Rng& rng) {
  LaplaceMechanism laplace(/*sensitivity=*/1.0, epsilon);
  return laplace.Apply(static_cast<double>(true_count), rng);
}

}  // namespace ppdp::dp
