// Kin-privacy experiment (the chapter-5 motivation: "once the owner of a
// genome is identified, he ... puts his relatives' privacy at risk"): how
// much of a non-publishing target's genome and traits an attacker infers as
// more and closer relatives publish theirs.
//
//   $ ./bench_kin [--snps 80] [--seed 5]
#include <string>
#include <vector>

#include "bench_util.h"
#include "genomics/pedigree.h"
#include "genomics/privacy_metrics.h"

namespace {

using namespace ppdp::genomics;

/// Attacker's mean confidence in the target's true genotypes (the
/// incorrectness-style metric — monotone in published evidence, unlike raw
/// entropy which a surprising observation can legitimately raise) plus the
/// mean entropy privacy over the target's associated SNPs.
struct KinPrivacy {
  double truth_confidence = 0.0;  ///< mean P(true genotype) — attack power
  double snp_entropy = 0.0;       ///< mean normalized entropy — uncertainty
};

KinPrivacy TargetPrivacy(const GwasCatalog& catalog, const Pedigree& pedigree,
                         const KinView& view, size_t target) {
  auto result = RunKinInference(catalog, pedigree, view, target);
  const std::vector<size_t>& snps = catalog.associated_snps();
  std::vector<std::vector<double>> marginals;
  KinPrivacy out;
  for (size_t s : snps) {
    marginals.push_back(result.snp_marginals[s]);
    out.snp_entropy += EntropyPrivacy(result.snp_marginals[s]);
  }
  out.snp_entropy /= static_cast<double>(snps.size());
  out.truth_confidence = TruthConfidence(catalog, view.members[target], marginals);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"snps"});
  ppdp::Flags flags(argc, argv);
  ppdp::Rng rng(env.seed);
  SyntheticCatalogConfig config;
  config.num_snps = static_cast<size_t>(flags.GetInt("snps", 80));
  config.snps_per_trait = 4;
  GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);

  // Three-generation pedigree: grandparents (0,1) -> parent (2); founder
  // spouse (3); parent couple (2,3) -> target (4) and sibling (5).
  Pedigree pedigree;
  size_t grandpa = pedigree.AddFounder();
  size_t grandma = pedigree.AddFounder();
  size_t parent = pedigree.AddChild(grandpa, grandma);
  size_t spouse = pedigree.AddFounder();
  size_t target = pedigree.AddChild(parent, spouse);
  size_t sibling = pedigree.AddChild(parent, spouse);

  auto family = SampleFamily(catalog, pedigree, rng);

  struct Scenario {
    std::string name;
    std::vector<size_t> publishers;
  };
  std::vector<Scenario> scenarios = {
      {"nobody", {}},
      {"one grandparent", {grandpa}},
      {"both grandparents", {grandpa, grandma}},
      {"sibling", {sibling}},
      {"one parent", {parent}},
      {"both parents", {parent, spouse}},
      {"parents + sibling", {parent, spouse, sibling}},
      {"entire family", {grandpa, grandma, parent, spouse, sibling}},
  };

  ppdp::Table table(
      {"publishing relatives", "attacker P(true genotype)", "target SNP entropy"});
  for (const Scenario& s : scenarios) {
    KinView view = MakeKinView(catalog, family, s.publishers);
    KinPrivacy privacy = TargetPrivacy(catalog, pedigree, view, target);
    table.AddRow({s.name, ppdp::Table::FormatDouble(privacy.truth_confidence, 4),
                  ppdp::Table::FormatDouble(privacy.snp_entropy, 4)});
  }
  env.Emit(table, "kin_privacy",
           "Kin privacy: attack power on a non-publishing target vs publishing relatives");

  // Defense: the kin sanitizer caps the attacker's confidence while letting
  // the family keep as many SNPs public as possible.
  {
    ppdp::Table defense({"confidence cap", "SNPs hidden", "SNPs still public", "satisfied"});
    KinView exposed = MakeKinView(catalog, family,
                                  {grandpa, grandma, parent, spouse, sibling});
    for (double cap : {0.65, 0.60, 0.55, 0.52}) {
      KinSanitizeOptions options;
      options.max_truth_confidence = cap;
      options.max_sanitized = 60;
      KinSanitizeResult result =
          GreedyKinSanitize(catalog, pedigree, exposed, target, options);
      defense.AddRow({ppdp::Table::FormatDouble(cap, 2),
                      std::to_string(result.sanitized.size()),
                      std::to_string(result.released), result.satisfied ? "yes" : "no"});
    }
    env.Emit(defense, "kin_defense",
             "Kin defense: GreedyKinSanitize utility (public SNPs) vs confidence cap");
  }
  return 0;
}
