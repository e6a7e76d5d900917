// Reproduces Tables 5.1 and 5.2: conditional allele and genotype
// probabilities given a neighbor trait, for a representative SNP-trait
// association (f^o = 0.25, odds ratio 2.0).
//
// Note (documented in DESIGN.md): the dissertation prints the homozygote
// rows of Table 5.2 as √f, which does not normalize; this implementation
// uses the Hardy-Weinberg genotype model the table is built from, so the
// printed genotype columns sum to 1.
//
//   $ ./bench_table5_12 [--raf 0.25] [--oratio 2.0]
#include "bench_util.h"
#include "genomics/snp.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"raf", "oratio"});
  ppdp::Flags flags(argc, argv);
  double fo = flags.GetDouble("raf", 0.25);
  double oratio = flags.GetDouble("oratio", 2.0);
  double fa = ppdp::genomics::CaseRafFromControl(fo, oratio);

  // Table 5.1: allele probabilities given the trait.
  ppdp::Table table51({"allele", "t_j (present)", "~t_j (absent)"});
  table51.AddRow({"r (risk)", ppdp::Table::FormatDouble(fa, 4),
                  ppdp::Table::FormatDouble(fo, 4)});
  table51.AddRow({"rho (non-risk)", ppdp::Table::FormatDouble(1.0 - fa, 4),
                  ppdp::Table::FormatDouble(1.0 - fo, 4)});
  env.Emit(table51, "table5_1",
           "Table 5.1 - allele probability given trait (f_o=" +
               ppdp::Table::FormatDouble(fo, 2) + ", OR=" +
               ppdp::Table::FormatDouble(oratio, 2) + ", f_a=" +
               ppdp::Table::FormatDouble(fa, 4) + ")");

  // Table 5.2: genotype probabilities given the trait (Hardy-Weinberg).
  auto present = ppdp::genomics::GenotypeGivenTrait(fo, oratio, /*trait_present=*/true);
  auto absent = ppdp::genomics::GenotypeGivenTrait(fo, oratio, /*trait_present=*/false);
  ppdp::Table table52({"genotype", "t_j (present)", "~t_j (absent)"});
  const char* names[] = {"rho rho", "r rho", "r r"};
  for (int g = 2; g >= 0; --g) {
    table52.AddRow({names[g], ppdp::Table::FormatDouble(present[static_cast<size_t>(g)], 4),
                    ppdp::Table::FormatDouble(absent[static_cast<size_t>(g)], 4)});
  }
  env.Emit(table52, "table5_2", "Table 5.2 - genotype probability given trait (Hardy-Weinberg)");
  return 0;
}
