#ifndef PPDP_COMMON_MATH_UTIL_H_
#define PPDP_COMMON_MATH_UTIL_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"

namespace ppdp {

/// Shannon entropy of a probability vector, in nats by default or bits when
/// `base2` is true. Zero entries contribute zero. The vector need not be
/// normalized; it is normalized internally (all-zero input yields 0).
double Entropy(const std::vector<double>& probs, bool base2 = false);

/// Entropy of `probs` normalized by log(|probs|), as used by the
/// dissertation's δ-privacy metric (Eq. 5.7): H / log(k) in [0, 1].
/// A single-element distribution has normalized entropy 0 by convention.
double NormalizedEntropy(const std::vector<double>& probs);

/// Arithmetic mean. Empty input yields 0.
double Mean(const std::vector<double>& values);

/// Population variance (divides by N). Empty input yields 0.
double Variance(const std::vector<double>& values);

/// Quantile q (clamped to [0, 1]) of ascending `sorted` values: Hyndman–Fan
/// type 7, linear interpolation between the closest ranks at position
/// q * (n - 1). Empty input yields 0; one value (or all-equal values) is
/// every quantile.
double QuantileOfSorted(std::span<const double> sorted, double q);

/// Index of the maximum element; ties break toward the lower index.
/// Requires a non-empty vector.
size_t ArgMax(const std::vector<double>& values);

/// Scales `values` in place so they sum to 1. If the sum is zero the vector
/// becomes uniform. Requires non-negative entries and a non-empty vector.
/// The span form is inline: the BP kernel calls it for every message.
void NormalizeInPlace(std::vector<double>& values);
inline void NormalizeInPlace(std::span<double> values) {
  PPDP_CHECK(!values.empty()) << "normalizing empty vector";
  double total = 0.0;
  for (double v : values) {
    PPDP_CHECK(v >= 0.0) << "negative entry " << v;
    total += v;
  }
  if (total <= 0.0) {
    double uniform = 1.0 / static_cast<double>(values.size());
    for (double& v : values) v = uniform;
    return;
  }
  for (double& v : values) v /= total;
}

/// Returns a normalized copy of `values` (see NormalizeInPlace).
std::vector<double> Normalized(std::vector<double> values);

/// L1 distance between two equal-length vectors. The span form is inline,
/// as NormalizeInPlace's is.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);
inline double L1Distance(std::span<const double> a, std::span<const double> b) {
  PPDP_CHECK(a.size() == b.size());
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

/// True when |a - b| <= tol.
bool NearlyEqual(double a, double b, double tol = 1e-9);

}  // namespace ppdp

#endif  // PPDP_COMMON_MATH_UTIL_H_
