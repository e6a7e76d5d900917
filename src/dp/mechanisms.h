#ifndef PPDP_DP_MECHANISMS_H_
#define PPDP_DP_MECHANISMS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace ppdp::dp {

/// Samples Laplace(0, scale) noise. Requires scale > 0.
double SampleLaplace(double scale, Rng& rng);

/// The Laplace mechanism: releases value + Lap(sensitivity / epsilon),
/// which is ε-differentially private for a query with the given L1
/// sensitivity (Dwork 2006, the formal guarantee the dissertation adopts).
class LaplaceMechanism {
 public:
  LaplaceMechanism(double sensitivity, double epsilon);

  double Apply(double true_value, Rng& rng) const;
  double scale() const { return scale_; }
  double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  double scale_;
};

/// Two-sided geometric mechanism for integer-valued queries: adds noise with
/// P(k) ∝ α^|k|, α = exp(-ε/sensitivity). The discrete analogue of Laplace.
int64_t SampleTwoSidedGeometric(double epsilon, double sensitivity, Rng& rng);

/// Exponential mechanism: picks index i with probability proportional to
/// exp(ε · utility[i] / (2 · sensitivity)). Used by the synthesizer's
/// structure-selection step.
size_t ExponentialMechanism(const std::vector<double>& utilities, double epsilon,
                            double sensitivity, Rng& rng);

/// k-ary randomized response: keeps the true value with probability
/// e^ε / (e^ε + k - 1), otherwise flips to a uniformly random other value —
/// ε-locally-differentially-private for a categorical attribute with k
/// values.
class RandomizedResponse {
 public:
  RandomizedResponse(size_t domain_size, double epsilon);

  size_t Perturb(size_t value, Rng& rng) const;
  /// Probability the true value survives.
  double keep_probability() const { return keep_; }
  /// Unbiased frequency estimator: maps an observed empirical frequency back
  /// to an estimate of the true frequency.
  double Debias(double observed_frequency) const;

 private:
  size_t domain_size_;
  double keep_;
};

}  // namespace ppdp::dp

#endif  // PPDP_DP_MECHANISMS_H_
