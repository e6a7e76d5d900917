// Extension experiment: utility of the DP synthesizer vs privacy budget ε,
// on an AMD-like genotype panel — the dissertation's high-dimensional DP
// publishing methodology (low-dimensional approximation + noise + sampling).
// Includes the independent-marginals ablation (structure_fraction = 0).
//
//   $ ./bench_dp_synthesis [--snps 80] [--rows 600] [--seed 7]
#include <string>

#include "bench_util.h"
#include "dp/synthesizer.h"
#include "genomics/genome_data.h"
#include "genomics/genome_dp.h"
#include "genomics/gwas_catalog.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"snps", "rows"});
  ppdp::Flags flags(argc, argv);
  size_t num_snps = static_cast<size_t>(flags.GetInt("snps", 80));
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 600));

  ppdp::Rng rng(env.seed);
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
  // Case/control panel for the GWAS-signal utility column.
  auto panel = ppdp::genomics::GenerateAmdLike(catalog, /*index_trait=*/7, rows / 2, rows / 2,
                                               rng);

  ppdp::Table table({"epsilon", "model", "marginal L1", "pairwise L1", "GWAS signal err"});
  ppdp::Table audit({"epsilon", "model", "label", "mechanism", "calls", "epsilon spent"});
  for (double epsilon : {0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    for (bool tree : {true, false}) {
      ppdp::dp::SynthesizerConfig config;
      config.epsilon = epsilon;
      config.structure_fraction = tree ? 0.3 : 0.0;
      config.seed = env.seed;
      // Every mechanism invocation of this fit is audited against a
      // ledger sized to ε; an overrun would fail the fit here.
      ppdp::obs::PrivacyLedger ledger(epsilon);
      auto model = ppdp::dp::PrivateSynthesizer::Fit(data, config, &ledger);
      if (!model.ok()) continue;
      const char* model_name = tree ? "pairwise tree" : "independent";
      for (const auto& entry : ledger.entries()) {
        audit.AddRow({ppdp::Table::FormatDouble(epsilon, 2), model_name, entry.label,
                      entry.mechanism, std::to_string(entry.calls),
                      ppdp::Table::FormatDouble(entry.total_epsilon, 4)});
      }
      ppdp::Rng sample_rng(env.seed + 1);
      auto synthetic = model->Sample(rows, sample_rng);
      ppdp::genomics::DpPanelConfig panel_config;
      panel_config.epsilon = epsilon;
      panel_config.structure_fraction = tree ? 0.3 : 0.0;
      panel_config.seed = env.seed;
      auto dp_panel = ppdp::genomics::SynthesizeDpPanel(panel, panel_config);
      double signal_error =
          dp_panel.ok() ? ppdp::genomics::GwasSignalError(panel, *dp_panel) : -1.0;
      table.AddRow({ppdp::Table::FormatDouble(epsilon, 2), model_name,
                    ppdp::Table::FormatDouble(ppdp::dp::MarginalL1Error(data, synthetic, 3), 4),
                    ppdp::Table::FormatDouble(ppdp::dp::PairwiseL1Error(data, synthetic, 3), 4),
                    ppdp::Table::FormatDouble(signal_error, 4)});
    }
  }
  env.Emit(table, "dp_synthesis", "DP synthesis utility vs epsilon (tree vs independent)");
  env.Emit(audit, "dp_synthesis_ledger",
           "privacy ledger: epsilon spent per labeled mechanism call");

  // Representative per-mechanism audit trail for the run report: the table
  // above aggregates across all ε, but BENCH_dp_synthesis.json carries one
  // full ledger (tree fit at ε = 1) with every labeled spend.
  {
    ppdp::dp::SynthesizerConfig config;
    config.epsilon = 1.0;
    config.structure_fraction = 0.3;
    config.seed = env.seed;
    ppdp::obs::PrivacyLedger ledger(config.epsilon);
    auto model = ppdp::dp::PrivateSynthesizer::Fit(data, config, &ledger);
    if (model.ok()) env.EmitLedger(ledger, "dp_synthesis_ledger_eps1");
  }
  return 0;
}
