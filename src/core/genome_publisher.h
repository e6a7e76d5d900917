#ifndef PPDP_CORE_GENOME_PUBLISHER_H_
#define PPDP_CORE_GENOME_PUBLISHER_H_

#include <vector>

#include "common/result.h"
#include "core/publisher.h"
#include "core/publisher_options.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "genomics/inference_attack.h"
#include "genomics/privacy_metrics.h"
#include "genomics/snp_sanitizer.h"

namespace ppdp::core {

/// High-level chapter-5 API: owns a GWAS catalog and a target individual's
/// view, exposes the inference attack for measurement and the greedy GPUT
/// sanitizer for publishing with δ-privacy. Typical flow:
///
///   auto pub = GenomePublisher::Create(catalog, view, {});
///   if (!pub.ok()) return pub.status();
///   auto before = pub->Attack(genomics::AttackMethod::kBeliefPropagation);
///   auto result = pub->PublishWithDeltaPrivacy(/*delta=*/0.8, hidden_traits);
class GenomePublisher : public Publisher {
 public:
  /// Validates `options` and builds a publisher. The genome pipeline has no
  /// attacker-visibility mask and runs belief propagation serially, so
  /// `options.known_fraction`, `options.seed` and `options.threads` are
  /// unused here.
  static Result<GenomePublisher> Create(genomics::GwasCatalog catalog,
                                        genomics::TargetView view,
                                        const PublisherOptions& options);

  PublisherKind kind() const override { return PublisherKind::kGenome; }

  /// Unified entry point: greedy GPUT sanitization toward δ-privacy
  /// (config.delta) of config.target_traits on a working copy — unlike
  /// PublishWithDeltaPrivacy the held view is untouched. privacy_* is min
  /// target-trait entropy; utility_loss is the fraction of previously
  /// published SNPs withheld.
  Result<PublishOutput> Publish(const PublishConfig& config) const override;

  /// Runs the inference attack on the current view.
  genomics::GenomeAttackResult Attack(
      genomics::AttackMethod method,
      const genomics::FactorGraph::BpOptions& options = {}) const;

  /// Privacy report of the current view for the given hidden traits.
  genomics::PrivacyReport Privacy(const std::vector<size_t>& target_traits,
                                  genomics::AttackMethod method) const;

  /// Greedily hides vulnerable neighbor SNPs until every target trait has
  /// δ-privacy; the sanitized view replaces the current one.
  genomics::GputResult PublishWithDeltaPrivacy(double delta,
                                               const std::vector<size_t>& target_traits,
                                               genomics::AttackMethod method =
                                                   genomics::AttackMethod::kBeliefPropagation);

  /// SNPs still published (the utility of Definition 5.5.2).
  size_t ReleasedSnps() const { return genomics::ReleasedSnpCount(view_); }

  const genomics::GwasCatalog& catalog() const { return catalog_; }
  const genomics::TargetView& view() const { return view_; }

 private:
  GenomePublisher(genomics::GwasCatalog catalog, genomics::TargetView view);

  genomics::GwasCatalog catalog_;
  genomics::TargetView view_;
};

}  // namespace ppdp::core

#endif  // PPDP_CORE_GENOME_PUBLISHER_H_
