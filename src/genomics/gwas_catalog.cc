#include "genomics/gwas_catalog.h"

#include "common/logging.h"

namespace ppdp::genomics {

std::vector<Trait> Table53Diseases() {
  // Table 5.3, verbatim.
  return {
      {"Alzheimer's Disease", 0.0167},
      {"Celiac Disease", 0.0075},
      {"Heart Diseases", 0.115},
      {"Hypertensive disease", 0.29},
      {"Liver carcinoma", 0.000017},
      {"Osteoporosis", 0.103},
      {"Stomach Carcinoma", 0.00025},
  };
}

size_t GwasCatalog::AddTrait(Trait trait) {
  PPDP_CHECK(trait.prevalence > 0.0 && trait.prevalence < 1.0)
      << "prevalence of " << trait.name << " out of (0,1): " << trait.prevalence;
  traits_.push_back(std::move(trait));
  by_trait_.emplace_back();
  return traits_.size() - 1;
}

void GwasCatalog::AddAssociation(SnpTraitAssociation association) {
  PPDP_CHECK(association.snp < num_snps_) << "SNP index out of range";
  PPDP_CHECK(association.trait < traits_.size()) << "trait index out of range";
  PPDP_CHECK(association.control_raf > 0.0 && association.control_raf < 1.0);
  PPDP_CHECK(association.odds_ratio > 0.0);
  size_t index = associations_.size();
  if (by_snp_[association.snp].empty()) associated_snps_.push_back(association.snp);
  by_snp_[association.snp].push_back(index);
  by_trait_[association.trait].push_back(index);
  associations_.push_back(association);
}

void GwasCatalog::AddLdPair(LdPair pair) {
  PPDP_CHECK(pair.a < num_snps_ && pair.b < num_snps_) << "LD SNP index out of range";
  PPDP_CHECK(pair.a != pair.b) << "LD pair must link distinct loci";
  PPDP_CHECK(pair.correlation >= 0.0 && pair.correlation <= 1.0);
  ld_pairs_.push_back(pair);
}

const std::vector<size_t>& GwasCatalog::AssociationsOfSnp(size_t snp) const {
  PPDP_CHECK(snp < num_snps_);
  return by_snp_[snp];
}

const std::vector<size_t>& GwasCatalog::AssociationsOfTrait(size_t trait) const {
  PPDP_CHECK(trait < traits_.size());
  return by_trait_[trait];
}

double GwasCatalog::BackgroundRaf(size_t snp, double fallback) const {
  PPDP_CHECK(snp < num_snps_);
  if (by_snp_[snp].empty()) return fallback;
  return associations_[by_snp_[snp].front()].control_raf;
}

GwasCatalog GenerateSyntheticCatalog(const SyntheticCatalogConfig& config, Rng& rng) {
  PPDP_CHECK(config.num_snps >= config.snps_per_trait * 2)
      << "panel too narrow for the requested fan-out";
  GwasCatalog catalog(config.num_snps);
  for (const Trait& t : Table53Diseases()) catalog.AddTrait(t);
  if (config.include_amd) {
    catalog.AddTrait({"Age-related macular degeneration", kAmdPrevalence});
  }

  auto random_raf = [&] {
    return config.min_control_raf +
           rng.UniformReal() * (config.max_control_raf - config.min_control_raf);
  };
  auto random_or = [&] {
    return config.min_odds_ratio +
           rng.UniformReal() * (config.max_odds_ratio - config.min_odds_ratio);
  };

  size_t cursor = 0;  // next fresh SNP locus
  size_t previous_shared = 0;
  for (size_t t = 0; t < catalog.num_traits(); ++t) {
    for (size_t k = 0; k < config.snps_per_trait; ++k) {
      size_t snp;
      if (config.shared_snps && t > 0 && k == 0) {
        // Share one SNP with the previous trait — the Fig 5.1 topology where
        // s2 links t1 and t2.
        snp = previous_shared;
      } else {
        snp = cursor++ % config.num_snps;
      }
      if (k == config.snps_per_trait - 1) previous_shared = snp;
      catalog.AddAssociation({snp, t, random_raf(), random_or()});
    }
  }
  return catalog;
}

}  // namespace ppdp::genomics
