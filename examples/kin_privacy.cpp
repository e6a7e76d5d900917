// Kin genomic privacy walkthrough: the chapter-5 motivation that a
// relative's click of the "share my genome" button threatens *your*
// privacy — and the kin extension of the GPUT sanitizer that caps the leak.
//
//   $ ./kin_privacy [--snps 80] [--seed 9] [--cap 0.55]
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "genomics/pedigree.h"
#include "genomics/privacy_metrics.h"

using namespace ppdp::genomics;

namespace {

double TruthConfidence(const GwasCatalog& catalog, const Pedigree& pedigree,
                       const KinView& view, size_t target) {
  auto result = RunKinInference(catalog, pedigree, view, target);
  std::vector<std::vector<double>> marginals;
  for (size_t s : catalog.associated_snps()) marginals.push_back(result.snp_marginals[s]);
  return ppdp::genomics::TruthConfidence(catalog, view.members[target], marginals);
}

}  // namespace

int main(int argc, char** argv) {
  ppdp::Flags flags(argc, argv);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 9));
  double cap = flags.GetDouble("cap", 0.55);

  ppdp::Rng rng(seed);
  SyntheticCatalogConfig config;
  config.num_snps = static_cast<size_t>(flags.GetInt("snps", 80));
  config.snps_per_trait = 4;
  GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);

  // A nuclear family; the child (member 2) publishes nothing, ever.
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  auto family = SampleFamily(catalog, pedigree, rng);
  const size_t target = 2;

  std::printf("family: father, mother, child (the non-publishing target)\n");
  std::printf("catalog: %zu SNPs, %zu traits\n\n", catalog.num_snps(), catalog.num_traits());

  KinView nobody = MakeKinView(catalog, family, {});
  KinView parents = MakeKinView(catalog, family, {0, 1});
  std::printf("attacker's mean confidence in the child's true genotypes:\n");
  std::printf("  nobody publishes:       %.4f\n",
              TruthConfidence(catalog, pedigree, nobody, target));
  double exposed = TruthConfidence(catalog, pedigree, parents, target);
  std::printf("  both parents publish:   %.4f   <- the kin privacy leak\n\n", exposed);

  std::printf("running the kin sanitizer (cap attacker confidence at %.2f)...\n", cap);
  KinSanitizeOptions options;
  options.max_truth_confidence = cap;
  KinView sanitized;
  KinSanitizeResult result =
      GreedyKinSanitize(catalog, pedigree, parents, target, options, &sanitized);

  std::printf("hid %zu of the parents' SNPs (%zu still public); cap %s\n",
              result.sanitized.size(), result.released,
              result.satisfied ? "satisfied" : "not reachable");
  std::printf("confidence trace:");
  for (double c : result.confidence_trace) std::printf(" %.3f", c);
  std::printf("\n\nfirst sanitized entries (member, SNP):");
  for (size_t i = 0; i < result.sanitized.size() && i < 8; ++i) {
    std::printf(" (%zu, s%zu)", result.sanitized[i].member, result.sanitized[i].snp);
  }
  std::printf("\n");
  return 0;
}
