#include "genomics/snp_sanitizer.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace ppdp::genomics {

namespace {

/// Traits directly associated with any SNP in `snps`.
std::set<size_t> TraitsOfSnps(const GwasCatalog& catalog, const std::set<size_t>& snps) {
  std::set<size_t> traits;
  for (size_t s : snps) {
    for (size_t id : catalog.AssociationsOfSnp(s)) {
      traits.insert(catalog.associations()[id].trait);
    }
  }
  return traits;
}

/// SNPs directly associated with any trait in `traits`.
std::set<size_t> SnpsOfTraits(const GwasCatalog& catalog, const std::set<size_t>& traits) {
  std::set<size_t> snps;
  for (size_t t : traits) {
    for (size_t id : catalog.AssociationsOfTrait(t)) {
      snps.insert(catalog.associations()[id].snp);
    }
  }
  return snps;
}

/// GPUT's pick rule: the first maximum of min + 1e-3·mean target entropy
/// (the worst-protected target first, then the mean), taken only if it
/// raised the min or the mean.
struct GputRule {
  double delta;
  bool Done(const PrivacyReport& r) const { return !(r.min_entropy < delta); }
  static double Key(const PrivacyReport& r) { return r.min_entropy + 1e-3 * r.mean_entropy; }
  bool Prefer(const PrivacyReport& score, const PrivacyReport& best, bool first) const {
    return Key(score) > (first ? -1.0 : Key(best));
  }
  bool Accept(const PrivacyReport& best, const PrivacyReport& current) const {
    return !(best.min_entropy <= current.min_entropy + 1e-12 &&
             best.mean_entropy <= current.mean_entropy + 1e-12);
  }
  double Trace(const PrivacyReport& r) const { return r.min_entropy; }
};

}  // namespace

std::vector<size_t> NeighborSnpsOfTrait(const GwasCatalog& catalog, size_t trait) {
  PPDP_CHECK(trait < catalog.num_traits());
  // Case 1: directly associated SNPs.
  std::set<size_t> snps = SnpsOfTraits(catalog, {trait});
  // Case 2: SNPs of traits that share SNPs with `trait`.
  std::set<size_t> sharing_traits = TraitsOfSnps(catalog, snps);
  std::set<size_t> case2 = SnpsOfTraits(catalog, sharing_traits);
  snps.insert(case2.begin(), case2.end());
  // Case 3: SNPs sharing traits with the case-2 SNPs.
  std::set<size_t> case3 = SnpsOfTraits(catalog, TraitsOfSnps(catalog, case2));
  snps.insert(case3.begin(), case3.end());
  return {snps.begin(), snps.end()};
}

std::vector<size_t> NeighborSnpsOfSnp(const GwasCatalog& catalog, size_t snp) {
  PPDP_CHECK(snp < catalog.num_snps());
  // Case 1: SNPs sharing a trait with `snp`.
  std::set<size_t> own_traits = TraitsOfSnps(catalog, {snp});
  std::set<size_t> snps = SnpsOfTraits(catalog, own_traits);
  // Case 2: SNPs of traits associated with the case-1 SNPs.
  std::set<size_t> case2 = SnpsOfTraits(catalog, TraitsOfSnps(catalog, snps));
  snps.insert(case2.begin(), case2.end());
  // Case 3: SNPs sharing traits with the case-2 SNPs.
  std::set<size_t> case3 = SnpsOfTraits(catalog, TraitsOfSnps(catalog, case2));
  snps.insert(case3.begin(), case3.end());
  snps.erase(snp);
  return {snps.begin(), snps.end()};
}

GputResult GreedySanitize(const GwasCatalog& catalog, TargetView view,
                          const std::vector<size_t>& target_traits, const GputOptions& options,
                          TargetView* sanitized_view) {
  PPDP_CHECK(!target_traits.empty()) << "no target traits to protect";
  PPDP_CHECK(options.delta >= 0.0 && options.delta <= 1.0);
  PPDP_CHECK(view.snp_known.size() == catalog.num_snps());
  PPDP_CHECK(view.trait_known.size() == catalog.num_traits());

  // Candidate pool: published neighbor SNPs of any target trait.
  std::set<size_t> pool;
  for (size_t t : target_traits) {
    PPDP_CHECK(t < catalog.num_traits());
    for (size_t s : NeighborSnpsOfTrait(catalog, t)) {
      if (view.snp_known[s] && view.individual.genotypes[s] != kUnknownGenotype) pool.insert(s);
    }
  }

  // The BP attack builds its graph once, and only the targets' marginals are
  // read. Naive Bayes re-runs the attack on the view per candidate.
  GputResult result;
  std::vector<size_t> candidates(pool.begin(), pool.end());
  const GputRule rule{options.delta};
  if (options.method == AttackMethod::kBeliefPropagation) {
    std::vector<size_t> trait_variable, snp_variable, target_variables;
    FactorGraph graph = BuildAttackGraph(catalog, view, &trait_variable, &snp_variable);
    for (size_t t : target_traits) target_variables.push_back(trait_variable[t]);
    // Pool SNPs come from associations, so each has a clamped variable.
    for (size_t s : pool) PPDP_CHECK(graph.HasEvidence(snp_variable[s]));
    RunBpGreedy(&graph, options.bp, std::move(target_variables), std::move(candidates),
                options.max_sanitized, [&](size_t s) { return snp_variable[s]; },
                SummarizeTargetPrivacy, rule, &result.sanitized, &result.privacy_trace);
  } else {
    auto evaluate = [&] {
      return EvaluateTraitPrivacy(RunGenomeInference(catalog, view, options.method, options.bp),
                                  target_traits);
    };
    auto trial = [&](size_t s) {
      view.snp_known[s] = false;
      const PrivacyReport report = evaluate();
      view.snp_known[s] = true;
      return report;
    };
    auto pick = [&](size_t s) { view.snp_known[s] = false; };
    RunGreedy(std::move(candidates), options.max_sanitized, evaluate(), trial, pick, rule,
              &result.sanitized, &result.privacy_trace);
  }
  for (size_t s : result.sanitized) view.snp_known[s] = false;
  result.satisfied = result.privacy_trace.back() >= options.delta - 1e-12;
  result.released = ReleasedSnpCount(view);
  if (sanitized_view != nullptr) *sanitized_view = std::move(view);
  return result;
}

}  // namespace ppdp::genomics
