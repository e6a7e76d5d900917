#ifndef PPDP_GENOMICS_GWAS_CATALOG_H_
#define PPDP_GENOMICS_GWAS_CATALOG_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "genomics/snp.h"

namespace ppdp::genomics {

/// A trait (phenotype) with its population prevalence rate.
struct Trait {
  std::string name;
  double prevalence = 0.0;
};

/// One SNP-trait association row as reported by GWAS Catalog: the SNP, the
/// trait, the control-group risk-allele frequency f^o and the odds ratio O
/// of the risk allele (Section 5.3.1's C(T, s_i, r_i^j, O_i^j, f_i^o)).
struct SnpTraitAssociation {
  size_t snp = 0;
  size_t trait = 0;
  double control_raf = 0.2;
  double odds_ratio = 1.5;
};

/// The seven diseases of Table 5.3 with their prevalence rates, verbatim.
std::vector<Trait> Table53Diseases();

/// Prevalence used for the AMD trait itself (late AMD in the 75+ population,
/// not in Table 5.3; documented substitution).
inline constexpr double kAmdPrevalence = 0.085;

/// A pairwise linkage-disequilibrium entry: with probability `correlation`
/// locus `b` carries the same risk-allele count as locus `a`; otherwise it
/// is an independent Hardy-Weinberg draw. This is the publicly available
/// SNP-SNP correlation that lets an attacker recover a *removed* SNP from
/// its published neighbors — the James Watson ApoE scenario of Section 5.1.
struct LdPair {
  size_t a = 0;
  size_t b = 0;
  double correlation = 0.8;  ///< in [0, 1]
};

/// An in-memory SNP-trait association catalog over `num_snps` SNP loci and
/// a trait list — the publicly available background knowledge of the
/// chapter-5 attacker — plus optional pairwise LD entries.
class GwasCatalog {
 public:
  explicit GwasCatalog(size_t num_snps) : num_snps_(num_snps) {}

  /// Adds a trait; returns its index.
  size_t AddTrait(Trait trait);

  /// Adds an association; snp/trait indices must exist, parameters valid.
  void AddAssociation(SnpTraitAssociation association);

  /// Adds an LD pair (a != b, correlation in [0, 1]).
  void AddLdPair(LdPair pair);
  const std::vector<LdPair>& ld_pairs() const { return ld_pairs_; }

  size_t num_snps() const { return num_snps_; }
  size_t num_traits() const { return traits_.size(); }
  const std::vector<Trait>& traits() const { return traits_; }
  const std::vector<SnpTraitAssociation>& associations() const { return associations_; }

  /// Each associated SNP once, in first-association order.
  const std::vector<size_t>& associated_snps() const { return associated_snps_; }

  /// Indices into associations() touching the given SNP / trait.
  const std::vector<size_t>& AssociationsOfSnp(size_t snp) const;
  const std::vector<size_t>& AssociationsOfTrait(size_t trait) const;

  /// Background (control) RAF of a SNP: the control RAF of its first
  /// association, or `fallback` for unassociated loci.
  double BackgroundRaf(size_t snp, double fallback = 0.25) const;

 private:
  size_t num_snps_;
  std::vector<Trait> traits_;
  std::vector<SnpTraitAssociation> associations_;
  std::vector<size_t> associated_snps_;
  std::vector<LdPair> ld_pairs_;
  std::vector<std::vector<size_t>> by_snp_{std::vector<std::vector<size_t>>(num_snps_)};
  std::vector<std::vector<size_t>> by_trait_;
};

/// Parameters of the synthetic catalog generator.
struct SyntheticCatalogConfig {
  size_t num_snps = 2000;          ///< panel width (AMD dataset: 90 449, scaled)
  size_t snps_per_trait = 5;       ///< association fan-out per trait
  double min_control_raf = 0.05;
  double max_control_raf = 0.5;
  double min_odds_ratio = 1.2;
  double max_odds_ratio = 3.0;
  bool include_amd = true;         ///< add the AMD trait alongside Table 5.3
  bool shared_snps = true;         ///< let consecutive traits share one SNP, creating
                                   ///< the loops/neighbor structure of Fig 5.1
};

/// Builds a catalog over the Table 5.3 diseases (plus AMD) with seeded
/// random association parameters. Consecutive traits share one SNP when
/// `shared_snps` is set so neighbor-SNP closures (Defs 5.5.3/5.5.4) are
/// non-trivial.
GwasCatalog GenerateSyntheticCatalog(const SyntheticCatalogConfig& config, Rng& rng);

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_GWAS_CATALOG_H_
