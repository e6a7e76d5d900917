// Reproduces Fig 5.2: trait privacy level with an increasing number of
// sanitized SNPs, under (a) belief propagation and (b) Naive Bayes as the
// attacker's prediction method. Both the normalized-entropy series and the
// attacker estimation-error series are reported, as in the figure.
//
//   $ ./bench_fig5_2 [--snps 400] [--seed 5] [--max_sanitized 8]
#include <string>
#include <vector>

#include "bench_util.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "genomics/inference_attack.h"
#include "genomics/privacy_metrics.h"
#include "genomics/snp_sanitizer.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"snps", "max_sanitized"});
  ppdp::Flags flags(argc, argv);
  size_t num_snps = static_cast<size_t>(flags.GetInt("snps", 400));
  size_t max_sanitized = static_cast<size_t>(flags.GetInt("max_sanitized", 8));

  ppdp::Rng rng(env.seed);
  ppdp::genomics::SyntheticCatalogConfig config;
  config.num_snps = num_snps;
  config.snps_per_trait = 5;
  auto catalog = ppdp::genomics::GenerateSyntheticCatalog(config, rng);
  auto person = ppdp::genomics::SampleIndividual(catalog, rng);
  auto base_view = ppdp::genomics::MakeTargetView(catalog, person, /*known_traits=*/{});

  // Targets: the common diseases (the rare ones have near-zero prior
  // entropy, so no sanitization can protect them — documented substitution).
  std::vector<size_t> targets = {2, 3, 5, 7};  // Heart, Hypertension, Osteoporosis, AMD

  struct Panel {
    ppdp::genomics::AttackMethod method;
    std::string id;
    std::string title;
  };
  Panel panels[] = {
      {ppdp::genomics::AttackMethod::kBeliefPropagation, "fig5_2a",
       "Fig 5.2(a) - privacy vs sanitized SNPs, belief propagation"},
      {ppdp::genomics::AttackMethod::kNaiveBayes, "fig5_2b",
       "Fig 5.2(b) - privacy vs sanitized SNPs, Naive Bayes"},
  };

  for (const Panel& panel : panels) {
    // Greedy sanitization order under this attacker.
    ppdp::genomics::GputOptions options;
    options.delta = 1.0;  // unreachable: produce the full removal trajectory
    options.max_sanitized = max_sanitized;
    options.method = panel.method;
    ppdp::genomics::GputResult greedy =
        GreedySanitize(catalog, base_view, targets, options, nullptr);

    ppdp::Table table({"Removed SNPs", "Entropy (privacy)", "Inference error"});
    ppdp::genomics::TargetView view = base_view;
    for (size_t k = 0; k <= greedy.sanitized.size(); ++k) {
      if (k > 0) view.snp_known[greedy.sanitized[k - 1]] = false;
      auto attack = RunGenomeInference(catalog, view, panel.method);
      auto report = EvaluateTraitPrivacy(attack, targets);
      table.AddRow({std::to_string(k), ppdp::Table::FormatDouble(report.mean_entropy, 4),
                    ppdp::Table::FormatDouble(report.mean_error, 4)});
    }
    env.Emit(table, panel.id, panel.title);
  }
  return 0;
}
