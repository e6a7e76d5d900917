#ifndef PPDP_GENOMICS_PEDIGREE_H_
#define PPDP_GENOMICS_PEDIGREE_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "genomics/factor_graph.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "genomics/inference_attack.h"

namespace ppdp::genomics {

/// A family pedigree: members are founders (no recorded parents) or
/// children of two earlier members. Chapter 5's kin-privacy threat — "once
/// the owner of a genome is identified, he … puts his relatives' privacy
/// at risk" — is modeled by running the inference attack over the whole
/// family jointly, with Mendelian factors tying each child's genotypes to
/// its parents'.
class Pedigree {
 public:
  Pedigree() = default;

  /// Adds a member with no recorded parents; returns its index.
  size_t AddFounder();

  /// Adds a child of two existing members; returns its index.
  size_t AddChild(size_t father, size_t mother);

  size_t num_members() const { return father_.size(); }
  bool IsFounder(size_t member) const;
  /// Parent indices; only valid when !IsFounder(member).
  size_t Father(size_t member) const;
  size_t Mother(size_t member) const;

  /// Convenience: a nuclear family — two founders plus `children` children.
  static Pedigree NuclearFamily(size_t children);

 private:
  std::vector<int64_t> father_;  ///< -1 for founders
  std::vector<int64_t> mother_;
};

/// Mendelian transmission table P(child | father, mother) over risk-allele
/// counts, row-major with the child fastest (27 entries): each parent
/// transmits a risk allele with probability (own count)/2.
std::vector<double> MendelianTable();

/// Samples a family consistent with the catalog: founders via
/// SampleIndividual; each child's genotypes by Mendelian transmission from
/// the (already sampled) parents, its traits from the Bayes posterior given
/// its first associated genotype per trait.
std::vector<Individual> SampleFamily(const GwasCatalog& catalog, const Pedigree& pedigree,
                                     Rng& rng);

/// What each family member has published.
struct KinView {
  std::vector<Individual> members;               ///< ground truth per member
  std::vector<std::vector<bool>> snp_known;      ///< [member][snp]
  std::vector<std::vector<bool>> trait_known;    ///< [member][trait]
};

/// Builds a view where `publishing_members` publish their associated SNPs
/// and everything else is hidden (all traits hidden for everyone).
KinView MakeKinView(const GwasCatalog& catalog, std::vector<Individual> family,
                    const std::vector<size_t>& publishing_members);

/// Joint kin inference: one chapter-5 attack graph per member (trait priors
/// + association + LD factors) plus a Mendelian factor per (child,
/// associated SNP) triple linking child/father/mother variables. Runs loopy
/// BP and returns the marginals of `target_member`.
GenomeAttackResult RunKinInference(const GwasCatalog& catalog, const Pedigree& pedigree,
                                   const KinView& view, size_t target_member,
                                   const FactorGraph::BpOptions& options = {});

/// The kin sanitizer's score: the attacker's mean confidence in `target`'s
/// true genotypes, `marginals[i]` being its marginal of the catalog's
/// `associated_snps()[i]`. Dies if a true genotype there is unknown.
double TruthConfidence(const GwasCatalog& catalog, const Individual& target,
                       const std::vector<std::vector<double>>& marginals);

/// Options of the kin-protection sanitizer.
struct KinSanitizeOptions {
  double max_truth_confidence = 0.55;  ///< cap on the attacker's mean P(true genotype)
  size_t max_sanitized = SIZE_MAX;     ///< cap on hidden (member, SNP) entries
  FactorGraph::BpOptions bp;
};

/// One hidden entry of the kin sanitizer.
struct KinSanitizedEntry {
  size_t member = 0;
  size_t snp = 0;
};

/// Result of GreedyKinSanitize.
struct KinSanitizeResult {
  std::vector<KinSanitizedEntry> sanitized;  ///< pick order
  std::vector<double> confidence_trace;      ///< attacker confidence after each pick
                                             ///< (index 0 = before sanitization)
  bool satisfied = false;
  size_t released = 0;  ///< entries the relatives still publish
};

/// The kin extension of the GPUT sanitizer: the family wants to publish as
/// much as possible while the attacker's mean confidence in the
/// *non-publishing target's* true genotypes (over its associated SNPs)
/// stays below the cap. Greedily hides the relative's published SNP whose
/// removal lowers that confidence most, until the cap holds or nothing
/// helps. The target's own data stays untouched (it publishes nothing).
KinSanitizeResult GreedyKinSanitize(const GwasCatalog& catalog, const Pedigree& pedigree,
                                    KinView view, size_t target_member,
                                    const KinSanitizeOptions& options,
                                    KinView* sanitized_view = nullptr);

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_PEDIGREE_H_
