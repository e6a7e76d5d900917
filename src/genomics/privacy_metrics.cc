#include "genomics/privacy_metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace ppdp::genomics {

double EntropyPrivacy(const std::vector<double>& marginal) {
  return NormalizedEntropy(marginal);
}

double EstimationError(const std::vector<double>& marginal) {
  PPDP_CHECK(marginal.size() >= 2);
  size_t guess = ArgMax(marginal);
  double span = static_cast<double>(marginal.size() - 1);
  double error = 0.0;
  for (size_t x = 0; x < marginal.size(); ++x) {
    error += marginal[x] *
             std::fabs(static_cast<double>(x) - static_cast<double>(guess)) / span;
  }
  return error;
}

bool SatisfiesDeltaPrivacy(const std::vector<std::vector<double>>& marginals, double delta) {
  return std::all_of(marginals.begin(), marginals.end(), [delta](const std::vector<double>& m) {
    return EntropyPrivacy(m) >= delta - 1e-12;
  });
}

PrivacyReport EvaluateTraitPrivacy(const GenomeAttackResult& attack,
                                   const std::vector<size_t>& target_traits) {
  std::vector<std::vector<double>> target_marginals;
  target_marginals.reserve(target_traits.size());
  for (size_t t : target_traits) {
    PPDP_CHECK(t < attack.trait_marginals.size()) << "target trait out of range";
    target_marginals.push_back(attack.trait_marginals[t]);
  }
  return SummarizeTargetPrivacy(target_marginals);
}

PrivacyReport SummarizeTargetPrivacy(const std::vector<std::vector<double>>& target_marginals) {
  PrivacyReport report;
  if (target_marginals.empty()) return report;
  double entropy_sum = 0.0;
  double error_sum = 0.0;
  report.min_entropy = 1.0;
  for (const std::vector<double>& marginal : target_marginals) {
    double h = EntropyPrivacy(marginal);
    entropy_sum += h;
    report.min_entropy = std::min(report.min_entropy, h);
    error_sum += EstimationError(marginal);
  }
  report.mean_entropy = entropy_sum / static_cast<double>(target_marginals.size());
  report.mean_error = error_sum / static_cast<double>(target_marginals.size());
  return report;
}

size_t ReleasedSnpCount(const TargetView& view) {
  size_t count = 0;
  for (size_t s = 0; s < view.snp_known.size(); ++s) {
    if (view.snp_known[s] && view.individual.genotypes[s] != kUnknownGenotype) ++count;
  }
  return count;
}

}  // namespace ppdp::genomics
