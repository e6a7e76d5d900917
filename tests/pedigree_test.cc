// Kin-genomics tests: Mendelian inheritance, family sampling, joint kin
// inference (the chapter-5 relative-privacy threat) and the LD recovery
// channel (the Section 5.1 ApoE scenario).
#include "genomics/pedigree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "genomics/privacy_metrics.h"

namespace ppdp::genomics {
namespace {

GwasCatalog SmallCatalog() {
  Rng rng(5);
  SyntheticCatalogConfig config;
  config.num_snps = 60;
  config.snps_per_trait = 3;
  return GenerateSyntheticCatalog(config, rng);
}

TEST(PedigreeTest, NuclearFamilyStructure) {
  Pedigree family = Pedigree::NuclearFamily(2);
  EXPECT_EQ(family.num_members(), 4u);
  EXPECT_TRUE(family.IsFounder(0));
  EXPECT_TRUE(family.IsFounder(1));
  EXPECT_FALSE(family.IsFounder(2));
  EXPECT_EQ(family.Father(2), 0u);
  EXPECT_EQ(family.Mother(3), 1u);
}

TEST(PedigreeDeathTest, InvalidParentsRejected) {
  Pedigree family;
  size_t a = family.AddFounder();
  EXPECT_DEATH(family.AddChild(a, a), "distinct");
  EXPECT_DEATH(family.AddChild(a, 99), "out of range");
  EXPECT_DEATH((void)family.Father(a), "founder");
}

TEST(MendelianTest, RowsAreDistributions) {
  auto table = MendelianTable();
  ASSERT_EQ(table.size(), 27u);
  for (int gf = 0; gf < 3; ++gf) {
    for (int gm = 0; gm < 3; ++gm) {
      double sum = 0.0;
      for (int gc = 0; gc < 3; ++gc) {
        double p = table[static_cast<size_t>((gf * 3 + gm) * 3 + gc)];
        EXPECT_GE(p, 0.0);
        sum += p;
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

TEST(MendelianTest, HomozygoteParentsDeterministic) {
  auto table = MendelianTable();
  auto p = [&](int gf, int gm, int gc) {
    return table[static_cast<size_t>((gf * 3 + gm) * 3 + gc)];
  };
  EXPECT_DOUBLE_EQ(p(2, 2, 2), 1.0);  // rr x rr -> rr
  EXPECT_DOUBLE_EQ(p(0, 0, 0), 1.0);  // ρρ x ρρ -> ρρ
  EXPECT_DOUBLE_EQ(p(2, 0, 1), 1.0);  // rr x ρρ -> rρ
  // rρ x rρ -> 1/4, 1/2, 1/4 (the classic Punnett square).
  EXPECT_DOUBLE_EQ(p(1, 1, 0), 0.25);
  EXPECT_DOUBLE_EQ(p(1, 1, 1), 0.5);
  EXPECT_DOUBLE_EQ(p(1, 1, 2), 0.25);
}

TEST(SampleFamilyTest, ChildrenObeyMendelianConstraints) {
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(3);
  Rng rng(9);
  auto family = SampleFamily(catalog, pedigree, rng);
  ASSERT_EQ(family.size(), 5u);
  for (size_t child = 2; child < 5; ++child) {
    for (size_t s = 0; s < catalog.num_snps(); ++s) {
      Genotype gf = family[0].genotypes[s];
      Genotype gm = family[1].genotypes[s];
      Genotype gc = family[child].genotypes[s];
      // Allele-count bounds: each parent contributes 0 or 1 risk allele,
      // and a homozygous parent contributes deterministically.
      int min_alleles = (gf == 2 ? 1 : 0) + (gm == 2 ? 1 : 0);
      int max_alleles = (gf >= 1 ? 1 : 0) + (gm >= 1 ? 1 : 0);
      EXPECT_GE(gc, min_alleles) << "snp " << s;
      EXPECT_LE(gc, max_alleles) << "snp " << s;
    }
  }
}

TEST(KinInferenceTest, RelativesLeakTargetGenotypes) {
  // Parents publish everything; the child publishes nothing. The attacker's
  // marginal for the child's SNP must be sharper than the population prior
  // whenever the parents are homozygous (Mendelian determinism).
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  Rng rng(9);
  auto family = SampleFamily(catalog, pedigree, rng);
  KinView view = MakeKinView(catalog, family, /*publishing_members=*/{0, 1});

  auto result = RunKinInference(catalog, pedigree, view, /*target_member=*/2);
  size_t checked = 0;
  for (const auto& a : catalog.associations()) {
    Genotype gf = view.members[0].genotypes[a.snp];
    Genotype gm = view.members[1].genotypes[a.snp];
    if (gf == 2 && gm == 2) {
      EXPECT_GT(result.snp_marginals[a.snp][2], 0.95) << "snp " << a.snp;
      ++checked;
    } else if (gf == 0 && gm == 0) {
      EXPECT_GT(result.snp_marginals[a.snp][0], 0.95) << "snp " << a.snp;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << "catalog produced no homozygous parent pairs";
}

TEST(KinInferenceTest, NonPublishingFamilyLeaksNothingDeterministic) {
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  Rng rng(9);
  auto family = SampleFamily(catalog, pedigree, rng);
  KinView view = MakeKinView(catalog, family, /*publishing_members=*/{});
  auto result = RunKinInference(catalog, pedigree, view, 2);
  // With nothing published, no SNP marginal may be fully deterministic.
  // (Low-RAF loci can still have sharp priors, amplified for shared SNPs by
  // the Eq. 5.2 product model, so the bound is deliberately loose.)
  for (const auto& a : catalog.associations()) {
    for (int g = 0; g < kNumGenotypes; ++g) {
      EXPECT_LT(result.snp_marginals[a.snp][static_cast<size_t>(g)], 0.9995);
    }
  }
}

TEST(KinInferenceTest, MoreRelativesPublishingMeansLessTargetPrivacy) {
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  Rng rng(21);
  auto family = SampleFamily(catalog, pedigree, rng);

  auto mean_snp_entropy = [&](const std::vector<size_t>& publishers) {
    KinView view = MakeKinView(catalog, family, publishers);
    auto result = RunKinInference(catalog, pedigree, view, 2);
    double total = 0.0;
    size_t count = 0;
    for (const auto& a : catalog.associations()) {
      total += EntropyPrivacy(result.snp_marginals[a.snp]);
      ++count;
    }
    return total / static_cast<double>(count);
  };

  double none = mean_snp_entropy({});
  double one_parent = mean_snp_entropy({0});
  double both_parents = mean_snp_entropy({0, 1});
  EXPECT_GT(none, one_parent);
  EXPECT_GT(one_parent, both_parents);
}

TEST(KinSanitizeTest, CapsAttackerConfidence) {
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  Rng rng(9);
  auto family = SampleFamily(catalog, pedigree, rng);
  KinView view = MakeKinView(catalog, family, /*publishing_members=*/{0, 1});

  KinSanitizeOptions options;
  options.max_truth_confidence = 0.55;
  KinView sanitized;
  KinSanitizeResult result =
      GreedyKinSanitize(catalog, pedigree, view, /*target_member=*/2, options, &sanitized);

  // The confidence trace is non-increasing (greedy only accepts improving
  // moves) and ends at the reported terminal state.
  for (size_t i = 1; i < result.confidence_trace.size(); ++i) {
    EXPECT_LE(result.confidence_trace[i], result.confidence_trace[i - 1] + 1e-12);
  }
  if (result.satisfied) {
    EXPECT_LE(result.confidence_trace.back(), options.max_truth_confidence + 1e-9);
    EXPECT_FALSE(result.sanitized.empty());  // parents publishing forced work
  }
  // Sanitized entries are actually hidden in the output view.
  for (const auto& entry : result.sanitized) {
    EXPECT_FALSE(sanitized.snp_known[entry.member][entry.snp]);
    EXPECT_NE(entry.member, 2u);  // never touches the target
  }
}

TEST(KinSanitizeTest, AlreadySafeNeedsNoWork) {
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  Rng rng(9);
  auto family = SampleFamily(catalog, pedigree, rng);
  KinView view = MakeKinView(catalog, family, /*publishing_members=*/{});
  KinSanitizeOptions options;
  options.max_truth_confidence = 0.99;  // trivially satisfied
  KinSanitizeResult result = GreedyKinSanitize(catalog, pedigree, view, 2, options);
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(result.sanitized.empty());
}

TEST(KinSanitizeTest, MaxSanitizedCapRespected) {
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  Rng rng(9);
  auto family = SampleFamily(catalog, pedigree, rng);
  KinView view = MakeKinView(catalog, family, {0, 1});
  KinSanitizeOptions options;
  options.max_truth_confidence = 0.0;  // unreachable
  options.max_sanitized = 3;
  KinSanitizeResult result = GreedyKinSanitize(catalog, pedigree, view, 2, options);
  EXPECT_LE(result.sanitized.size(), 3u);
  EXPECT_FALSE(result.satisfied);
}

/// The kin greedy as it was before the pedigree graph was built once per
/// call: every candidate rebuilds the graph and re-solves every marginal.
double ReferenceTruthConfidence(const GwasCatalog& catalog, const Pedigree& pedigree,
                                const KinView& view, size_t target,
                                const FactorGraph::BpOptions& options) {
  GenomeAttackResult result = RunKinInference(catalog, pedigree, view, target, options);
  double total = 0.0;
  size_t count = 0;
  std::vector<bool> seen(catalog.num_snps(), false);
  for (const auto& a : catalog.associations()) {
    if (seen[a.snp]) continue;
    seen[a.snp] = true;
    total += result.snp_marginals[a.snp][static_cast<size_t>(
        view.members[target].genotypes[a.snp])];
    ++count;
  }
  return total / static_cast<double>(count);
}

KinSanitizeResult ReferenceGreedyKinSanitize(const GwasCatalog& catalog,
                                             const Pedigree& pedigree, KinView view,
                                             size_t target_member,
                                             const KinSanitizeOptions& options,
                                             KinView* sanitized_view) {
  std::vector<KinSanitizedEntry> pool;
  for (size_t m = 0; m < pedigree.num_members(); ++m) {
    if (m == target_member) continue;
    for (size_t s = 0; s < catalog.num_snps(); ++s) {
      if (view.snp_known[m][s] && view.members[m].genotypes[s] != kUnknownGenotype) {
        pool.push_back({m, s});
      }
    }
  }
  KinSanitizeResult result;
  double current = ReferenceTruthConfidence(catalog, pedigree, view, target_member, options.bp);
  result.confidence_trace.push_back(current);
  while (current > options.max_truth_confidence && !pool.empty() &&
         result.sanitized.size() < options.max_sanitized) {
    size_t best_index = pool.size();
    double best_confidence = current;
    for (size_t i = 0; i < pool.size(); ++i) {
      view.snp_known[pool[i].member][pool[i].snp] = false;
      double confidence =
          ReferenceTruthConfidence(catalog, pedigree, view, target_member, options.bp);
      view.snp_known[pool[i].member][pool[i].snp] = true;
      if (confidence < best_confidence - 1e-12) {
        best_confidence = confidence;
        best_index = i;
      }
    }
    if (best_index == pool.size()) break;
    KinSanitizedEntry pick = pool[best_index];
    view.snp_known[pick.member][pick.snp] = false;
    pool.erase(pool.begin() + static_cast<ptrdiff_t>(best_index));
    current = best_confidence;
    result.sanitized.push_back(pick);
    result.confidence_trace.push_back(current);
  }
  result.satisfied = current <= options.max_truth_confidence + 1e-12;
  for (size_t m = 0; m < pedigree.num_members(); ++m) {
    if (m == target_member) continue;
    for (size_t s = 0; s < catalog.num_snps(); ++s) {
      if (view.snp_known[m][s] && view.members[m].genotypes[s] != kUnknownGenotype) {
        ++result.released;
      }
    }
  }
  *sanitized_view = std::move(view);
  return result;
}

std::vector<std::pair<size_t, size_t>> Entries(const KinSanitizeResult& result) {
  std::vector<std::pair<size_t, size_t>> entries;
  for (const KinSanitizedEntry& e : result.sanitized) entries.emplace_back(e.member, e.snp);
  return entries;
}

TEST(KinSanitizeTest, GraphReuseMatchesPerCandidateRebuildExactly) {
  // Three generations as in bench_kin: grandparents (0, 1) -> parent (2);
  // spouse (3); parent couple -> target (4) and sibling (5).
  Pedigree three_generations;
  three_generations.AddFounder();
  three_generations.AddFounder();
  three_generations.AddChild(0, 1);
  three_generations.AddFounder();
  three_generations.AddChild(2, 3);
  three_generations.AddChild(2, 3);
  struct Family {
    Pedigree pedigree;
    size_t target;
    std::vector<size_t> publishers[2];  ///< per catalog
  };
  const Family families[] = {
      {Pedigree::NuclearFamily(2), 2, {{0}, {3}}},
      {three_generations, 4, {{2}, {0, 5}}},
  };
  size_t picks = 0;
  for (uint64_t seed : {1, 2}) {
    Rng rng(seed);
    SyntheticCatalogConfig config;
    config.num_snps = 10;
    config.snps_per_trait = 2;
    config.include_amd = false;
    GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);  // associates loci 0..7
    if (seed == 2) {
      // LD pairs between random associated loci, and one that gives the
      // unassociated locus 8 a variable; locus 9 stays outside every pair.
      catalog.AddLdPair({8, rng.Uniform(8), 0.7});
      for (int i = 0; i < 4; ++i) {
        const size_t a = rng.Uniform(8);
        size_t b = rng.Uniform(8);
        if (b == a) b = (a + 1) % 8;
        catalog.AddLdPair({a, b, 0.3 + 0.6 * rng.UniformReal()});
      }
    }
    for (const Family& family : families) {
      const std::vector<Individual> members = SampleFamily(catalog, family.pedigree, rng);
      const std::vector<size_t>& publishers = family.publishers[seed - 1];
      KinView view = MakeKinView(catalog, members, publishers);
      if (family.target == 2) {
        // Locus 9 has no association and no LD pair, so no variable: a
        // published entry there is a candidate that changes nothing.
        view.snp_known[publishers[0]][9] = true;
      }
      for (double cap : {0.0, 0.55, 0.65}) {
        for (size_t max_sanitized : {size_t{0}, size_t{1}, size_t{3}, SIZE_MAX}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " members " << members.size() << " cap " << cap
                       << " max_sanitized " << max_sanitized);
          KinSanitizeOptions options;
          options.max_truth_confidence = cap;
          options.max_sanitized = max_sanitized;
          KinView want_view, got_view;
          const KinSanitizeResult want = ReferenceGreedyKinSanitize(
              catalog, family.pedigree, view, family.target, options, &want_view);
          const KinSanitizeResult got = GreedyKinSanitize(catalog, family.pedigree, view,
                                                          family.target, options, &got_view);
          EXPECT_EQ(Entries(got), Entries(want));
          EXPECT_EQ(got.confidence_trace, want.confidence_trace);
          EXPECT_EQ(got.satisfied, want.satisfied);
          EXPECT_EQ(got.released, want.released);
          EXPECT_EQ(got_view.snp_known, want_view.snp_known);
          EXPECT_EQ(got_view.trait_known, want_view.trait_known);
          ASSERT_EQ(got_view.members.size(), want_view.members.size());
          for (size_t m = 0; m < got_view.members.size(); ++m) {
            EXPECT_EQ(got_view.members[m].genotypes, want_view.members[m].genotypes);
            EXPECT_EQ(got_view.members[m].traits, want_view.members[m].traits);
          }
          picks += got.sanitized.size();
        }
      }
    }
  }
  // The sweep must exercise real multi-step greedy runs.
  EXPECT_GT(picks, 50u);
}

TEST(KinSanitizeDeathTest, BadViewsAndCapsRejected) {
  GwasCatalog catalog = SmallCatalog();
  Pedigree pedigree = Pedigree::NuclearFamily(1);
  Rng rng(9);
  const KinView view = MakeKinView(catalog, SampleFamily(catalog, pedigree, rng), {0, 1});
  const KinSanitizeOptions options;
  auto sanitize = [&](const KinView& v, const KinSanitizeOptions& o) {
    (void)GreedyKinSanitize(catalog, pedigree, v, 2, o);
  };

  KinView short_family = view;
  short_family.members.pop_back();
  EXPECT_DEATH(sanitize(short_family, options), "does not match the pedigree");
  EXPECT_DEATH((void)RunKinInference(catalog, pedigree, short_family, 2), "match the pedigree");
  KinView short_flags = view;
  short_flags.snp_known.pop_back();
  EXPECT_DEATH(sanitize(short_flags, options), "does not match the pedigree");
  short_flags = view;
  short_flags.trait_known.pop_back();
  EXPECT_DEATH(sanitize(short_flags, options), "does not match the pedigree");

  KinView narrow = view;
  narrow.snp_known[1].pop_back();
  EXPECT_DEATH(sanitize(narrow, options), "do not match the catalog");
  narrow = view;
  narrow.trait_known[0].push_back(false);
  EXPECT_DEATH(sanitize(narrow, options), "do not match the catalog");
  narrow = view;
  narrow.members[2].genotypes.pop_back();
  EXPECT_DEATH(sanitize(narrow, options), "do not match the catalog");
  EXPECT_DEATH((void)RunKinInference(catalog, pedigree, narrow, 2), "do not match the catalog");

  KinView unknown_truth = view;
  unknown_truth.members[2].genotypes[catalog.associated_snps()[0]] = kUnknownGenotype;
  EXPECT_DEATH(sanitize(unknown_truth, options), "target genotype unknown");

  for (double cap : {std::nan(""), -0.1, 1.5}) {
    KinSanitizeOptions bad;
    bad.max_truth_confidence = cap;
    EXPECT_DEATH(sanitize(view, bad), "confidence cap") << cap;
  }
}

// --- Linkage disequilibrium -------------------------------------------------

TEST(LdTest, HiddenSnpRecoveredThroughLdNeighbor) {
  // The Watson scenario: the sensitive locus 0 is removed from the release,
  // but locus 1 is in strong LD with it and stays published.
  GwasCatalog catalog(2);
  size_t t = catalog.AddTrait({"ApoE-linked condition", 0.1});
  catalog.AddAssociation({0, t, 0.2, 2.5});
  catalog.AddAssociation({1, t, 0.2, 1.2});
  catalog.AddLdPair({0, 1, 0.9});

  Individual person;
  person.genotypes = {2, 2};
  person.traits = {kTraitAbsent};
  TargetView view = MakeTargetView(catalog, person, {});
  view.snp_known[0] = false;  // "remove ApoE"

  auto result = RunGenomeInference(catalog, view, AttackMethod::kBeliefPropagation);
  // Without LD the prior for genotype rr at RAF 0.2 is 0.04; with the
  // published LD neighbor at rr the posterior must be dominated by rr.
  EXPECT_GT(result.snp_marginals[0][2], 0.5);
  EXPECT_GT(result.snp_marginals[0][2], HardyWeinberg(0.2)[2] * 5);
}

TEST(LdTest, NoLdMeansNoRecovery) {
  GwasCatalog catalog(2);
  size_t t = catalog.AddTrait({"condition", 0.1});
  catalog.AddAssociation({0, t, 0.2, 2.5});
  catalog.AddAssociation({1, t, 0.2, 1.2});

  Individual person;
  person.genotypes = {2, 2};
  person.traits = {kTraitAbsent};
  TargetView view = MakeTargetView(catalog, person, {});
  view.snp_known[0] = false;

  auto result = RunGenomeInference(catalog, view, AttackMethod::kBeliefPropagation);
  // Only the weak trait channel remains; rr stays implausible.
  EXPECT_LT(result.snp_marginals[0][2], 0.3);
}

TEST(LdTest, SampledDataMatchesLdModel) {
  GwasCatalog catalog(2);
  size_t t = catalog.AddTrait({"condition", 0.1});
  catalog.AddAssociation({0, t, 0.3, 1.5});
  catalog.AddAssociation({1, t, 0.3, 1.5});
  catalog.AddLdPair({0, 1, 0.85});
  Rng rng(3);
  size_t agree = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    Individual person = SampleIndividual(catalog, rng);
    if (person.genotypes[0] == person.genotypes[1]) ++agree;
  }
  // Agreement >= correlation (equal draws also agree by chance).
  EXPECT_GT(static_cast<double>(agree) / n, 0.85);
}

TEST(LdDeathTest, InvalidLdPairsRejected) {
  GwasCatalog catalog(3);
  EXPECT_DEATH(catalog.AddLdPair({0, 0, 0.5}), "distinct");
  EXPECT_DEATH(catalog.AddLdPair({0, 9, 0.5}), "out of range");
  EXPECT_DEATH(catalog.AddLdPair({0, 1, 1.5}), "");
}

}  // namespace
}  // namespace ppdp::genomics
