#ifndef PPDP_COMMON_MATH_UTIL_H_
#define PPDP_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <span>
#include <vector>

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
void NormalizeInPlace(std::vector<double>& values);
void NormalizeInPlace(std::span<double> values);

/// Returns a normalized copy of `values` (see NormalizeInPlace).
std::vector<double> Normalized(std::vector<double> values);

/// L1 distance between two equal-length vectors.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);
double L1Distance(std::span<const double> a, std::span<const double> b);

/// True when |a - b| <= tol.
bool NearlyEqual(double a, double b, double tol = 1e-9);

}  // namespace ppdp

#endif  // PPDP_COMMON_MATH_UTIL_H_
