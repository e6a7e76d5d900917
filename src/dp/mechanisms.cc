#include "dp/mechanisms.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ppdp::dp {

namespace {

/// Every mechanism invocation ticks a process-wide counter, so any run can
/// audit how many noisy releases happened regardless of which pipeline
/// triggered them (the per-ε attribution lives in obs::PrivacyLedger).
obs::Counter& MechanismCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}

}  // namespace

double SampleLaplace(double scale, Rng& rng) {
  PPDP_CHECK(scale > 0.0) << "Laplace scale must be positive, got " << scale;
  static obs::Counter& samples = MechanismCounter("dp.laplace.samples");
  samples.Increment();
  // Inverse-CDF sampling: u uniform in (-1/2, 1/2).
  double u = rng.UniformReal() - 0.5;
  // Guard against log(0) on the boundary.
  double magnitude = std::abs(u);
  if (magnitude >= 0.5) magnitude = 0.5 - 1e-15;
  double sample = -scale * std::log(1.0 - 2.0 * magnitude);
  return u < 0.0 ? -sample : sample;
}

LaplaceMechanism::LaplaceMechanism(double sensitivity, double epsilon) : epsilon_(epsilon) {
  PPDP_CHECK(sensitivity > 0.0) << "sensitivity must be positive";
  PPDP_CHECK(epsilon > 0.0) << "epsilon must be positive";
  scale_ = sensitivity / epsilon;
}

double LaplaceMechanism::Apply(double true_value, Rng& rng) const {
  return true_value + SampleLaplace(scale_, rng);
}

int64_t SampleTwoSidedGeometric(double epsilon, double sensitivity, Rng& rng) {
  PPDP_CHECK(epsilon > 0.0 && sensitivity > 0.0);
  static obs::Counter& samples = MechanismCounter("dp.geometric.samples");
  samples.Increment();
  double alpha = std::exp(-epsilon / sensitivity);
  // P(0) = (1-α)/(1+α); P(±k) = P(0)·α^k. Sample sign and magnitude.
  double p0 = (1.0 - alpha) / (1.0 + alpha);
  double u = rng.UniformReal();
  if (u < p0) return 0;
  // Magnitude k >= 1 with P ∝ α^k; sign uniform.
  double v = rng.UniformReal();
  if (v <= 0.0) v = 1e-15;
  int64_t k = 1 + static_cast<int64_t>(std::floor(std::log(v) / std::log(alpha)));
  if (k < 1) k = 1;
  return rng.Bernoulli(0.5) ? k : -k;
}

size_t ExponentialMechanism(const std::vector<double>& utilities, double epsilon,
                            double sensitivity, Rng& rng) {
  PPDP_CHECK(!utilities.empty());
  PPDP_CHECK(epsilon > 0.0 && sensitivity > 0.0);
  static obs::Counter& selections = MechanismCounter("dp.exponential.selections");
  selections.Increment();
  // Shift by the max for numerical stability; weights ∝ exp(ε u / 2Δ).
  double max_u = utilities[0];
  for (double u : utilities) max_u = std::max(max_u, u);
  std::vector<double> weights(utilities.size());
  for (size_t i = 0; i < utilities.size(); ++i) {
    weights[i] = std::exp(epsilon * (utilities[i] - max_u) / (2.0 * sensitivity));
  }
  return rng.Categorical(weights);
}

RandomizedResponse::RandomizedResponse(size_t domain_size, double epsilon)
    : domain_size_(domain_size) {
  PPDP_CHECK(domain_size >= 2) << "randomized response needs at least two values";
  PPDP_CHECK(epsilon > 0.0);
  double e = std::exp(epsilon);
  keep_ = e / (e + static_cast<double>(domain_size) - 1.0);
}

size_t RandomizedResponse::Perturb(size_t value, Rng& rng) const {
  PPDP_CHECK(value < domain_size_) << "value out of domain";
  static obs::Counter& perturbations = MechanismCounter("dp.randomized_response.perturbations");
  perturbations.Increment();
  if (rng.Bernoulli(keep_)) return value;
  // Uniform over the other domain_size - 1 values.
  size_t other = rng.Uniform(domain_size_ - 1);
  return other < value ? other : other + 1;
}

double RandomizedResponse::Debias(double observed_frequency) const {
  double lie = (1.0 - keep_) / (static_cast<double>(domain_size_) - 1.0);
  return (observed_frequency - lie) / (keep_ - lie);
}

}  // namespace ppdp::dp
