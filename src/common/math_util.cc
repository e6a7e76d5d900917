#include "common/math_util.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ppdp {

double Entropy(const std::vector<double>& probs, bool base2) {
  double total = 0.0;
  for (double p : probs) {
    PPDP_CHECK(p >= 0.0) << "negative probability " << p;
    total += p;
  }
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double p : probs) {
    if (p <= 0.0) continue;
    double q = p / total;
    h -= q * std::log(q);
  }
  return base2 ? h / std::log(2.0) : h;
}

double NormalizedEntropy(const std::vector<double>& probs) {
  if (probs.size() <= 1) return 0.0;
  return Entropy(probs) / std::log(static_cast<double>(probs.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mu) * (v - mu);
  return acc / static_cast<double>(values.size());
}

double QuantileOfSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(position);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (position - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

size_t ArgMax(const std::vector<double>& values) {
  PPDP_CHECK(!values.empty()) << "ArgMax of empty vector";
  size_t best = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

void NormalizeInPlace(std::vector<double>& values) {
  NormalizeInPlace(std::span<double>(values));
}

std::vector<double> Normalized(std::vector<double> values) {
  NormalizeInPlace(values);
  return values;
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  return L1Distance(std::span<const double>(a), std::span<const double>(b));
}

bool NearlyEqual(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

}  // namespace ppdp
