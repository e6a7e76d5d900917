#include "genomics/genome_dp.h"

#include <cmath>

#include "common/logging.h"
#include "dp/synthesizer.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace ppdp::genomics {

namespace {

/// Genotype rows of one group as synthesizer input.
dp::CategoricalData GroupRows(const CaseControlPanel& panel, bool cases) {
  dp::CategoricalData rows;
  for (size_t i = 0; i < panel.individuals.size(); ++i) {
    if (panel.is_case[i] != cases) continue;
    const auto& genotypes = panel.individuals[i].genotypes;
    dp::CategoricalRow row(genotypes.size());
    for (size_t s = 0; s < genotypes.size(); ++s) {
      // Unknown entries are imputed to the non-risk homozygote for model
      // fitting; published GWAS panels are effectively complete.
      row[s] = genotypes[s] == kUnknownGenotype ? 0 : genotypes[s];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

Result<CaseControlPanel> SynthesizeDpPanel(const CaseControlPanel& real,
                                           const DpPanelConfig& config) {
  obs::TraceSpan span(PPDP_SPAN_SITE("genomics.dp_panel"));
  if (real.individuals.empty()) return Status::InvalidArgument("empty panel");
  size_t num_traits = real.individuals[0].traits.size();
  size_t num_snps = real.individuals[0].genotypes.size();

  CaseControlPanel synthetic;
  synthetic.index_trait = real.index_trait;
  for (bool cases : {true, false}) {
    dp::CategoricalData rows = GroupRows(real, cases);
    if (rows.empty()) continue;
    dp::SynthesizerConfig model_config;
    model_config.epsilon = config.epsilon;
    model_config.structure_fraction = config.structure_fraction;
    model_config.domain = kNumGenotypes;
    model_config.seed = config.seed + (cases ? 1 : 2);
    PPDP_ASSIGN_OR_RETURN(
        auto model, dp::PrivateSynthesizer::Fit(rows, model_config, config.ledger,
                                                cases ? "case/" : "control/"));
    Rng rng(config.seed + (cases ? 11 : 12));
    dp::CategoricalData sampled = model.Sample(rows.size(), rng);
    for (const auto& row : sampled) {
      Individual person;
      person.genotypes.resize(num_snps);
      for (size_t s = 0; s < num_snps; ++s) person.genotypes[s] = row[s];
      person.traits.assign(num_traits, kUnknownTrait);
      if (real.index_trait < num_traits) {
        person.traits[real.index_trait] = cases ? kTraitPresent : kTraitAbsent;
      }
      synthetic.individuals.push_back(std::move(person));
      synthetic.is_case.push_back(cases);
    }
  }
  if (synthetic.individuals.empty()) {
    return Status::InvalidArgument("panel has neither cases nor controls");
  }
  PPDP_LOG(INFO) << "DP panel synthesized" << obs::Field("individuals", synthetic.individuals.size())
                 << obs::Field("snps", num_snps) << obs::Field("epsilon", config.epsilon)
                 << obs::Field("seconds", span.ElapsedSeconds());
  return synthetic;
}

double GroupRaf(const CaseControlPanel& panel, size_t snp, bool cases) {
  double alleles = 0.0;
  double people = 0.0;
  for (size_t i = 0; i < panel.individuals.size(); ++i) {
    if (panel.is_case[i] != cases) continue;
    Genotype g = panel.individuals[i].genotypes[snp];
    if (g == kUnknownGenotype) continue;
    alleles += static_cast<double>(g);
    people += 1.0;
  }
  return people == 0.0 ? 0.5 : alleles / (2.0 * people);
}

double GwasSignalError(const CaseControlPanel& real, const CaseControlPanel& synthetic) {
  PPDP_CHECK(!real.individuals.empty() && !synthetic.individuals.empty());
  size_t num_snps = real.individuals[0].genotypes.size();
  PPDP_CHECK(synthetic.individuals[0].genotypes.size() == num_snps)
      << "panels cover different SNP sets";
  double total = 0.0;
  for (size_t s = 0; s < num_snps; ++s) {
    double real_gap = GroupRaf(real, s, true) - GroupRaf(real, s, false);
    double synthetic_gap = GroupRaf(synthetic, s, true) - GroupRaf(synthetic, s, false);
    total += std::fabs(real_gap - synthetic_gap);
  }
  return total / static_cast<double>(num_snps);
}

}  // namespace ppdp::genomics
