#ifndef PPDP_GENOMICS_PRIVACY_METRICS_H_
#define PPDP_GENOMICS_PRIVACY_METRICS_H_

#include <cstddef>
#include <vector>

#include "genomics/genome_data.h"
#include "genomics/inference_attack.h"

namespace ppdp::genomics {

/// Normalized-entropy privacy of one attacker marginal (Equation 5.7):
/// H(p) / log(|domain|) in [0, 1]; 1 = the attacker learned nothing.
double EntropyPrivacy(const std::vector<double>& marginal);

/// Attacker estimation error for one variable (Equation 5.8):
/// Σ_x p(x) · ||x − x̂|| with x̂ the attacker's argmax guess and ||·|| the
/// numeric distance normalized by the domain span (so the value is in
/// [0, 1] for both genotypes and traits).
double EstimationError(const std::vector<double>& marginal);

/// δ-privacy (Definition 5.5.1): every listed marginal has entropy privacy
/// at least delta.
bool SatisfiesDeltaPrivacy(const std::vector<std::vector<double>>& marginals, double delta);

/// Privacy summary over a set of target traits.
struct PrivacyReport {
  double min_entropy = 1.0;   ///< worst-protected target (δ-privacy binds here)
  double mean_entropy = 1.0;  ///< Fig 5.2's "entropy" series
  double mean_error = 0.0;    ///< Fig 5.2's "inference error" series
};

/// Evaluates the attack result on the hidden target traits.
PrivacyReport EvaluateTraitPrivacy(const GenomeAttackResult& attack,
                                   const std::vector<size_t>& target_traits);

/// The same summary over the target traits' marginals, in target order.
PrivacyReport SummarizeTargetPrivacy(const std::vector<std::vector<double>>& target_marginals);

/// Utility (Definition 5.5.2): the number of SNPs still published in the
/// view.
size_t ReleasedSnpCount(const TargetView& view);

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_PRIVACY_METRICS_H_
