// Related-work reproduction (§2.2): genotype imputation over an LD chain.
// Shows why "releasing partial genome data cannot completely protect
// against inference attacks" — masked loci are recovered from their LD
// neighbors far above the population-mode baseline once adjacent
// correlation is present.
//
//   $ ./bench_imputation [--rows 150] [--loci 30] [--seed 7]
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "genomics/imputation.h"

namespace {

using namespace ppdp::genomics;

CaseControlPanel ChainPanel(size_t rows, size_t loci, double correlation, double raf,
                            uint64_t seed) {
  ppdp::Rng rng(seed);
  CaseControlPanel panel;
  for (size_t r = 0; r < rows; ++r) {
    Individual person;
    person.traits = {kTraitAbsent};
    person.genotypes.resize(loci);
    person.genotypes[0] = static_cast<Genotype>(rng.Categorical(HardyWeinberg(raf)));
    for (size_t i = 1; i < loci; ++i) {
      person.genotypes[i] = rng.Bernoulli(correlation)
                                ? person.genotypes[i - 1]
                                : static_cast<Genotype>(rng.Categorical(HardyWeinberg(raf)));
    }
    panel.individuals.push_back(std::move(person));
    panel.is_case.push_back(false);
  }
  return panel;
}

}  // namespace

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"loci", "rows"});
  ppdp::Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 150));
  size_t loci = static_cast<size_t>(flags.GetInt("loci", 30));

  // Panel A: accuracy vs adjacent-LD strength at a fixed 30 % mask.
  {
    ppdp::Table table({"LD correlation", "imputation accuracy", "HWE-mode baseline"});
    for (double correlation : {0.0, 0.3, 0.5, 0.7, 0.85, 0.95}) {
      CaseControlPanel panel = ChainPanel(rows, loci, correlation, 0.3, env.seed);
      double baseline = 0.0;
      double accuracy = MaskedImputationAccuracy(panel, 0.3, env.seed + 1, &baseline);
      table.AddRow({ppdp::Table::FormatDouble(correlation, 2),
                    ppdp::Table::FormatDouble(accuracy, 4),
                    ppdp::Table::FormatDouble(baseline, 4)});
    }
    env.Emit(table, "imputation_vs_ld",
             "Imputation accuracy vs adjacent LD strength (30% of loci masked)");
  }

  // Panel B: accuracy vs mask fraction at strong LD.
  {
    ppdp::Table table({"mask fraction", "imputation accuracy", "HWE-mode baseline"});
    CaseControlPanel panel = ChainPanel(rows, loci, 0.85, 0.3, env.seed);
    for (double mask : {0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
      double baseline = 0.0;
      double accuracy = MaskedImputationAccuracy(panel, mask, env.seed + 2, &baseline);
      table.AddRow({ppdp::Table::FormatDouble(mask, 1),
                    ppdp::Table::FormatDouble(accuracy, 4),
                    ppdp::Table::FormatDouble(baseline, 4)});
    }
    env.Emit(table, "imputation_vs_mask",
             "Imputation accuracy vs fraction of masked loci (LD correlation 0.85)");
  }
  return 0;
}
