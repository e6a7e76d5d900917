// Differential-privacy walkthrough: synthesizing a high-dimensional genomic
// panel with the PrivBayes-style low-dimensional approximation the
// dissertation proposes for DP genomic publishing.
//
//   $ ./dp_synthesis [--snps 60] [--rows 800] [--epsilon 2.0] [--seed 3]
#include <cstdio>
#include <iostream>
#include <optional>

#include "common/flags.h"
#include "common/table.h"
#include "core/ppdp.h"
#include "obs/ledger.h"
#include "obs/log.h"

int main(int argc, char** argv) {
  ppdp::Flags flags(argc, argv);
  ppdp::obs::InitLoggingFromFlags(flags);
  size_t num_snps = static_cast<size_t>(flags.GetInt("snps", 60));
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 800));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 3));

  // Build a genotype panel from the genomics generator.
  ppdp::Rng rng(seed);
  ppdp::genomics::SyntheticCatalogConfig catalog_config;
  catalog_config.num_snps = num_snps;
  auto catalog = ppdp::genomics::GenerateSyntheticCatalog(catalog_config, rng);
  ppdp::dp::CategoricalData data;
  for (size_t i = 0; i < rows; ++i) {
    auto person = ppdp::genomics::SampleIndividual(catalog, rng);
    ppdp::dp::CategoricalRow row(num_snps);
    for (size_t s = 0; s < num_snps; ++s) row[s] = person.genotypes[s];
    data.push_back(std::move(row));
  }
  std::printf("panel: %zu individuals x %zu SNPs\n\n", rows, num_snps);

  ppdp::Table table({"epsilon", "marginal L1 error", "pairwise L1 error"});
  std::optional<ppdp::Table> last_summary;
  double last_budget = 0.0;
  double last_spent = 0.0;
  for (double epsilon : {0.1, 0.5, 1.0, 2.0, 5.0, 20.0}) {
    ppdp::dp::SynthesizerConfig config;
    config.epsilon = epsilon;
    config.seed = seed;
    // The ledger holds the formal ε budget, refuses any overrun, and keeps
    // the labeled audit trail of every mechanism call.
    ppdp::obs::PrivacyLedger ledger(epsilon);
    auto model = ppdp::dp::PrivateSynthesizer::Fit(data, config, &ledger);
    if (!model.ok()) {
      std::printf("fit failed at epsilon %.2f: %s\n", epsilon,
                  model.status().ToString().c_str());
      continue;
    }
    ppdp::Rng sample_rng(seed + 1);
    auto synthetic = model->Sample(rows, sample_rng);
    table.AddRow({ppdp::Table::FormatDouble(epsilon, 2),
                  ppdp::Table::FormatDouble(ppdp::dp::MarginalL1Error(data, synthetic, 3), 4),
                  ppdp::Table::FormatDouble(ppdp::dp::PairwiseL1Error(data, synthetic, 3), 4)});
    last_summary = ledger.Summary();
    last_budget = ledger.budget();
    last_spent = ledger.spent();
  }
  table.Print(std::cout);
  std::printf("\nsampling is post-processing: the synthetic rows can be published freely\n");

  if (last_summary) {
    std::printf("\nprivacy ledger for the last fit (budget %.2f, spent %.4f):\n", last_budget,
                last_spent);
    last_summary->Print(std::cout);
  }

  // The ledger is enforcing, not just descriptive: once its budget is gone,
  // further mechanism invocations are rejected and the fit fails with a
  // non-OK Status instead of silently overspending.
  ppdp::obs::PrivacyLedger tight_ledger(0.5);
  ppdp::dp::SynthesizerConfig overrun_config;
  overrun_config.epsilon = 2.0;  // asks for 4x what the ledger allows
  overrun_config.seed = seed;
  auto overrun = ppdp::dp::PrivateSynthesizer::Fit(data, overrun_config, &tight_ledger);
  std::printf("\nfit with a 0.5-budget ledger but epsilon=2.0 -> %s\n",
              overrun.ok() ? "unexpectedly succeeded"
                           : overrun.status().ToString().c_str());
  std::printf("rejected spends recorded by the ledger: %zu\n",
              tight_ledger.rejected_spends());
  return 0;
}
