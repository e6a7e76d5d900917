#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "genomics/factor_graph.h"
#include "genomics/genome_data.h"
#include "genomics/genome_io.h"
#include "genomics/gwas_catalog.h"
#include "genomics/inference_attack.h"
#include "genomics/pedigree.h"
#include "genomics/privacy_metrics.h"
#include "genomics/snp.h"
#include "genomics/snp_sanitizer.h"

namespace ppdp::genomics {
namespace {

TEST(SnpTest, OddsRatioOneKeepsControlRaf) {
  EXPECT_NEAR(CaseRafFromControl(0.3, 1.0), 0.3, 1e-12);
}

TEST(SnpTest, RiskAlleleEnrichedInCases) {
  EXPECT_GT(CaseRafFromControl(0.3, 2.0), 0.3);
  EXPECT_LT(CaseRafFromControl(0.3, 0.5), 0.3);
  // Known value: OR=2, fo=0.2 -> fa = 0.4/(1+0.2) = 1/3.
  EXPECT_NEAR(CaseRafFromControl(0.2, 2.0), 1.0 / 3.0, 1e-12);
}

TEST(SnpTest, CaseRafStaysInUnitInterval) {
  for (double fo : {0.01, 0.2, 0.5, 0.9}) {
    for (double oratio : {0.1, 1.0, 3.0, 50.0}) {
      double fa = CaseRafFromControl(fo, oratio);
      EXPECT_GT(fa, 0.0);
      EXPECT_LT(fa, 1.0);
    }
  }
}

TEST(SnpTest, HardyWeinbergSumsToOne) {
  for (double f : {0.0, 0.1, 0.5, 0.99, 1.0}) {
    auto hw = HardyWeinberg(f);
    ASSERT_EQ(hw.size(), 3u);
    EXPECT_NEAR(hw[0] + hw[1] + hw[2], 1.0, 1e-12);
  }
  auto hw = HardyWeinberg(0.5);
  EXPECT_DOUBLE_EQ(hw[1], 0.5);  // 2pq at p = 0.5
}

TEST(SnpTest, TraitGivenGenotypeBayesConsistent) {
  // Manual Bayes for genotype rr: P(t|rr) = fa^2 p / (fa^2 p + fo^2 (1-p)).
  double fo = 0.25, oratio = 2.0, prevalence = 0.1;
  double fa = CaseRafFromControl(fo, oratio);
  double expected = fa * fa * prevalence / (fa * fa * prevalence + fo * fo * (1 - prevalence));
  auto posterior = TraitGivenGenotype(fo, oratio, prevalence, /*genotype=*/2);
  EXPECT_NEAR(posterior[1], expected, 1e-12);
  EXPECT_NEAR(posterior[0] + posterior[1], 1.0, 1e-12);
}

TEST(SnpTest, RiskGenotypeRaisesTraitPosterior) {
  double prevalence = 0.05;
  auto rr = TraitGivenGenotype(0.2, 2.5, prevalence, 2);
  auto nn = TraitGivenGenotype(0.2, 2.5, prevalence, 0);
  EXPECT_GT(rr[1], prevalence);
  EXPECT_LT(nn[1], prevalence);
}

TEST(CatalogTest, Table53Verbatim) {
  auto diseases = Table53Diseases();
  ASSERT_EQ(diseases.size(), 7u);
  EXPECT_EQ(diseases[0].name, "Alzheimer's Disease");
  EXPECT_DOUBLE_EQ(diseases[0].prevalence, 0.0167);
  EXPECT_DOUBLE_EQ(diseases[1].prevalence, 0.0075);
  EXPECT_DOUBLE_EQ(diseases[2].prevalence, 0.115);
  EXPECT_DOUBLE_EQ(diseases[3].prevalence, 0.29);
  EXPECT_DOUBLE_EQ(diseases[4].prevalence, 0.000017);
  EXPECT_DOUBLE_EQ(diseases[5].prevalence, 0.103);
  EXPECT_DOUBLE_EQ(diseases[6].prevalence, 0.00025);
}

TEST(CatalogTest, SyntheticCatalogShape) {
  Rng rng(5);
  SyntheticCatalogConfig config;
  config.num_snps = 200;
  config.snps_per_trait = 4;
  GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);
  EXPECT_EQ(catalog.num_traits(), 8u);  // Table 5.3 + AMD
  EXPECT_EQ(catalog.associations().size(), 8u * 4u);
  for (size_t t = 0; t < catalog.num_traits(); ++t) {
    EXPECT_EQ(catalog.AssociationsOfTrait(t).size(), 4u);
  }
  // Adjacent traits share a SNP (the Fig 5.1 topology).
  bool found_shared = false;
  for (size_t s = 0; s < catalog.num_snps() && !found_shared; ++s) {
    std::set<size_t> traits;
    for (size_t id : catalog.AssociationsOfSnp(s)) {
      traits.insert(catalog.associations()[id].trait);
    }
    found_shared = traits.size() >= 2;
  }
  EXPECT_TRUE(found_shared);
}

TEST(CatalogIoTest, SaveLoadRoundTripsSyntheticCatalog) {
  Rng rng(9);
  SyntheticCatalogConfig config;
  config.num_snps = 120;
  GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);
  const std::string path = ::testing::TempDir() + "/catalog_roundtrip.csv";

  ASSERT_TRUE(SaveGwasCatalog(catalog, path).ok());
  auto loaded = LoadGwasCatalog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_snps(), catalog.num_snps());
  ASSERT_EQ(loaded->num_traits(), catalog.num_traits());
  ASSERT_EQ(loaded->associations().size(), catalog.associations().size());
  ASSERT_EQ(loaded->ld_pairs().size(), catalog.ld_pairs().size());
  for (size_t t = 0; t < catalog.num_traits(); ++t) {
    EXPECT_EQ(loaded->traits()[t].name, catalog.traits()[t].name);
    EXPECT_NEAR(loaded->traits()[t].prevalence, catalog.traits()[t].prevalence, 1e-6);
  }
  for (size_t a = 0; a < catalog.associations().size(); ++a) {
    EXPECT_EQ(loaded->associations()[a].snp, catalog.associations()[a].snp);
    EXPECT_EQ(loaded->associations()[a].trait, catalog.associations()[a].trait);
    EXPECT_NEAR(loaded->associations()[a].control_raf, catalog.associations()[a].control_raf,
                1e-6);
    EXPECT_NEAR(loaded->associations()[a].odds_ratio, catalog.associations()[a].odds_ratio, 1e-6);
  }
  std::remove(path.c_str());
}

TEST(CatalogIoTest, ParseRejectsMalformedCatalogsWithInvalidArgument) {
  const std::vector<std::string> bad = {
      "",                                           // empty
      "gwas_catalog,v2,10\n",                       // wrong version
      "gwas_catalog,v1,0\n",                        // zero snps
      "gwas_catalog,v1,9999999999\n",               // over kMaxCatalogSnps
      "gwas_catalog,v1,10\ntrait,flu\n",            // trait row too narrow
      "gwas_catalog,v1,10\ntrait,flu,1.5\n",        // prevalence out of range
      "gwas_catalog,v1,10\ntrait,flu,0.1\nassoc,12,0,0.3,1.2\n",   // snp out of range
      "gwas_catalog,v1,10\ntrait,flu,0.1\nassoc,1,4,0.3,1.2\n",    // trait out of range
      "gwas_catalog,v1,10\ntrait,flu,0.1\nassoc,1,0,0.3,-2\n",     // negative odds
      "gwas_catalog,v1,10\nld,3,3,0.5\n",           // self-paired LD
      "gwas_catalog,v1,10\nld,1,2,1.5\n",           // correlation out of range
      "gwas_catalog,v1,10\nmystery,1\n",            // unknown row kind
  };
  for (const std::string& content : bad) {
    auto parsed = ParseGwasCatalog(content);
    ASSERT_FALSE(parsed.ok()) << content;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << content;
  }
  // The smallest valid catalog parses.
  auto minimal = ParseGwasCatalog("gwas_catalog,v1,1\n");
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->num_snps(), 1u);
}

TEST(GenomeDataTest, SampleIndividualConsistentShape) {
  Rng rng(5);
  SyntheticCatalogConfig config;
  config.num_snps = 100;
  GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);
  Individual person = SampleIndividual(catalog, rng);
  EXPECT_EQ(person.genotypes.size(), 100u);
  EXPECT_EQ(person.traits.size(), catalog.num_traits());
  for (Genotype g : person.genotypes) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, kNumGenotypes);
  }
}

TEST(GenomeDataTest, CaseControlPanelSplits) {
  Rng rng(5);
  SyntheticCatalogConfig config;
  config.num_snps = 100;
  GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);
  CaseControlPanel panel = GenerateAmdLike(catalog, /*index_trait=*/7, 96, 50, rng);
  ASSERT_EQ(panel.individuals.size(), 146u);
  for (size_t i = 0; i < panel.individuals.size(); ++i) {
    EXPECT_EQ(panel.is_case[i], i < 96);
    EXPECT_EQ(panel.individuals[i].traits[7], panel.is_case[i] ? kTraitPresent : kTraitAbsent);
  }
}

TEST(GenomeDataTest, CasesEnrichedForRiskAlleles) {
  Rng rng(5);
  SyntheticCatalogConfig config;
  config.num_snps = 100;
  config.min_odds_ratio = 2.5;
  config.max_odds_ratio = 3.0;
  GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);
  CaseControlPanel panel = GenerateAmdLike(catalog, /*index_trait=*/7, 300, 300, rng);
  // Mean risk-allele count at the index trait's SNPs must be higher in cases.
  double case_sum = 0.0, control_sum = 0.0;
  size_t case_n = 0, control_n = 0;
  for (size_t id : catalog.AssociationsOfTrait(7)) {
    size_t snp = catalog.associations()[id].snp;
    for (size_t i = 0; i < panel.individuals.size(); ++i) {
      if (panel.is_case[i]) {
        case_sum += panel.individuals[i].genotypes[snp];
        ++case_n;
      } else {
        control_sum += panel.individuals[i].genotypes[snp];
        ++control_n;
      }
    }
  }
  EXPECT_GT(case_sum / static_cast<double>(case_n),
            control_sum / static_cast<double>(control_n));
}

// --- Factor graph ----------------------------------------------------------

TEST(FactorGraphTest, SingleVariablePrior) {
  FactorGraph g;
  size_t v = g.AddVariable(2);
  g.AddFactor({v}, {0.3, 0.7});
  auto result = g.RunBeliefPropagation();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.marginals[v][0], 0.3, 1e-9);
  EXPECT_NEAR(result.marginals[v][1], 0.7, 1e-9);
}

TEST(FactorGraphTest, EvidenceClampsVariable) {
  FactorGraph g;
  size_t v = g.AddVariable(3);
  g.AddFactor({v}, {0.2, 0.3, 0.5});
  g.SetEvidence(v, 1);
  auto result = g.RunBeliefPropagation();
  EXPECT_DOUBLE_EQ(result.marginals[v][1], 1.0);
  g.ClearEvidence(v);
  result = g.RunBeliefPropagation();
  EXPECT_NEAR(result.marginals[v][2], 0.5, 1e-9);
}

TEST(FactorGraphTest, ChainMatchesExact) {
  // v0 - f01 - v1 - f12 - v2 with asymmetric tables.
  FactorGraph g;
  size_t v0 = g.AddVariable(2), v1 = g.AddVariable(2), v2 = g.AddVariable(2);
  g.AddFactor({v0}, {0.6, 0.4});
  g.AddFactor({v0, v1}, {0.9, 0.1, 0.2, 0.8});
  g.AddFactor({v1, v2}, {0.7, 0.3, 0.4, 0.6});
  auto bp = g.RunBeliefPropagation();
  auto exact = g.ExactMarginals();
  ASSERT_TRUE(bp.converged);
  for (size_t v : {v0, v1, v2}) {
    for (size_t x = 0; x < 2; ++x) EXPECT_NEAR(bp.marginals[v][x], exact[v][x], 1e-7);
  }
}

TEST(FactorGraphTest, ChainWithEvidenceMatchesExact) {
  FactorGraph g;
  size_t v0 = g.AddVariable(2), v1 = g.AddVariable(3), v2 = g.AddVariable(2);
  g.AddFactor({v0}, {0.5, 0.5});
  g.AddFactor({v0, v1}, {0.5, 0.3, 0.2, 0.1, 0.4, 0.5});
  g.AddFactor({v1, v2}, {0.9, 0.1, 0.5, 0.5, 0.2, 0.8});
  g.SetEvidence(v2, 1);
  auto bp = g.RunBeliefPropagation();
  auto exact = g.ExactMarginals();
  for (size_t x = 0; x < 3; ++x) EXPECT_NEAR(bp.marginals[v1][x], exact[v1][x], 1e-7);
  for (size_t x = 0; x < 2; ++x) EXPECT_NEAR(bp.marginals[v0][x], exact[v0][x], 1e-7);
}

/// Property test: BP is exact on random trees.
class BpTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BpTreeProperty, MatchesExactEnumeration) {
  Rng rng(GetParam());
  FactorGraph g;
  const size_t n = 3 + rng.Uniform(5);  // 3-7 variables
  std::vector<size_t> vars;
  for (size_t i = 0; i < n; ++i) vars.push_back(g.AddVariable(2 + rng.Uniform(2)));
  // Random tree: node i connects to a random earlier node.
  for (size_t i = 1; i < n; ++i) {
    size_t parent = rng.Uniform(i);
    size_t table_size = g.domain(vars[parent]) * g.domain(vars[i]);
    std::vector<double> table(table_size);
    for (double& t : table) t = rng.UniformReal() + 0.05;
    g.AddFactor({vars[parent], vars[i]}, std::move(table));
  }
  // Random unary priors on some nodes, one evidence clamp sometimes.
  for (size_t i = 0; i < n; ++i) {
    if (!rng.Bernoulli(0.5)) continue;
    std::vector<double> prior(g.domain(vars[i]));
    for (double& p : prior) p = rng.UniformReal() + 0.05;
    g.AddFactor({vars[i]}, std::move(prior));
  }
  if (rng.Bernoulli(0.5)) {
    size_t pick = rng.Uniform(n);
    g.SetEvidence(vars[pick], rng.Uniform(g.domain(vars[pick])));
  }

  FactorGraph::BpOptions options;
  options.max_iterations = 100;
  auto bp = g.RunBeliefPropagation(options);
  auto exact = g.ExactMarginals();
  ASSERT_TRUE(bp.converged);
  for (size_t i = 0; i < n; ++i) {
    for (size_t x = 0; x < g.domain(vars[i]); ++x) {
      EXPECT_NEAR(bp.marginals[vars[i]][x], exact[vars[i]][x], 1e-6)
          << "variable " << i << " state " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpTreeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16));

TEST(FactorGraphTest, LoopyGraphCloseToExact) {
  // A single loop: v0-v1, v1-v2, v2-v0 with near-uniform couplings — loopy
  // BP converges close to exact here.
  FactorGraph g;
  size_t v0 = g.AddVariable(2), v1 = g.AddVariable(2), v2 = g.AddVariable(2);
  std::vector<double> coupling = {0.6, 0.4, 0.4, 0.6};
  g.AddFactor({v0, v1}, coupling);
  g.AddFactor({v1, v2}, coupling);
  g.AddFactor({v2, v0}, coupling);
  g.AddFactor({v0}, {0.7, 0.3});
  FactorGraph::BpOptions options;
  options.max_iterations = 200;
  options.damping = 0.3;
  auto bp = g.RunBeliefPropagation(options);
  auto exact = g.ExactMarginals();
  for (size_t v : {v0, v1, v2}) {
    for (size_t x = 0; x < 2; ++x) EXPECT_NEAR(bp.marginals[v][x], exact[v][x], 0.05);
  }
}

TEST(FactorGraphDeathTest, BadInputsDie) {
  FactorGraph g;
  size_t v = g.AddVariable(2);
  EXPECT_DEATH(g.AddFactor({v}, {0.1}), "entries");
  EXPECT_DEATH(g.AddFactor({v, v}, {0.1, 0.2, 0.3, 0.4}), "repeats");
  EXPECT_DEATH(g.SetEvidence(v, 5), "domain");
}

// --- Attack graph (Fig 5.1 topology) ----------------------------------------

/// Catalog mirroring Fig 5.1: T = {t1,t2,t3}, S = {s1..s5} with associations
/// (s1,t1), (s2,t1), (s2,t2), (s3,t2), (s4,t2), (s5,t3).
GwasCatalog Fig51Catalog() {
  GwasCatalog catalog(5);
  for (int t = 0; t < 3; ++t) {
    catalog.AddTrait({"t" + std::to_string(t + 1), 0.1});
  }
  catalog.AddAssociation({0, 0, 0.2, 2.0});
  catalog.AddAssociation({1, 0, 0.25, 1.8});
  catalog.AddAssociation({1, 1, 0.25, 2.2});
  catalog.AddAssociation({2, 1, 0.3, 1.5});
  catalog.AddAssociation({3, 1, 0.15, 2.5});
  catalog.AddAssociation({4, 2, 0.2, 2.0});
  return catalog;
}

TargetView Fig51View(const GwasCatalog& catalog) {
  Individual person;
  person.genotypes = {2, 2, 1, 2, 0};
  person.traits = {kTraitPresent, kTraitAbsent, kTraitAbsent};
  return MakeTargetView(catalog, person, /*known_traits=*/{});
}

TEST(AttackGraphTest, Fig51StructureCounts) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  std::vector<size_t> trait_var, snp_var;
  FactorGraph graph = BuildAttackGraph(catalog, view, &trait_var, &snp_var);
  EXPECT_EQ(graph.num_variables(), 8u);       // 3 traits + 5 SNPs
  EXPECT_EQ(graph.num_factors(), 3u + 6u);    // priors + associations
  for (size_t s = 0; s < 5; ++s) EXPECT_TRUE(graph.HasEvidence(snp_var[s]));
  for (size_t t = 0; t < 3; ++t) EXPECT_FALSE(graph.HasEvidence(trait_var[t]));
}

TEST(InferenceTest, RiskGenotypesRaiseTraitPosterior) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  for (AttackMethod method : {AttackMethod::kBeliefPropagation, AttackMethod::kNaiveBayes}) {
    auto result = RunGenomeInference(catalog, view, method);
    // t1's SNPs are homozygous-risk -> posterior above the 0.1 prevalence.
    EXPECT_GT(result.trait_marginals[0][1], 0.1) << AttackMethodName(method);
    // t3's SNP has zero risk alleles -> posterior below prevalence.
    EXPECT_LT(result.trait_marginals[2][1], 0.1) << AttackMethodName(method);
  }
}

TEST(InferenceTest, KnownTraitIsClamped) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  view.trait_known[0] = true;
  auto result = RunGenomeInference(catalog, view, AttackMethod::kBeliefPropagation);
  EXPECT_DOUBLE_EQ(result.trait_marginals[0][1], 1.0);
}

TEST(InferenceTest, HiddenSnpGetsNontrivialMarginal) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  view.snp_known[0] = false;  // hide s1
  view.trait_known = {true, true, true};
  auto result = RunGenomeInference(catalog, view, AttackMethod::kBeliefPropagation);
  // With t1 present, s1's marginal should lean toward the case RAF model,
  // i.e. more risk-allele mass than Hardy-Weinberg at the control RAF.
  auto control = HardyWeinberg(0.2);
  EXPECT_GT(result.snp_marginals[0][2], control[2]);
}

TEST(InferenceTest, BpMatchesExactOnFig51) {
  // The Fig 5.1 graph is a tree, so BP must be exact.
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  view.snp_known = {false, true, true, false, true};
  std::vector<size_t> trait_var, snp_var;
  FactorGraph graph = BuildAttackGraph(catalog, view, &trait_var, &snp_var);
  FactorGraph::BpOptions options;
  options.max_iterations = 100;
  auto bp = graph.RunBeliefPropagation(options);
  auto exact = graph.ExactMarginals();
  for (size_t v = 0; v < graph.num_variables(); ++v) {
    for (size_t x = 0; x < graph.domain(v); ++x) {
      EXPECT_NEAR(bp.marginals[v][x], exact[v][x], 1e-6);
    }
  }
}

// --- Max-product / reconstruction -------------------------------------------

TEST(MaxProductTest, ChainMatchesExactMap) {
  FactorGraph g;
  size_t v0 = g.AddVariable(2), v1 = g.AddVariable(3), v2 = g.AddVariable(2);
  g.AddFactor({v0}, {0.7, 0.3});
  g.AddFactor({v0, v1}, {0.5, 0.3, 0.2, 0.1, 0.4, 0.5});
  g.AddFactor({v1, v2}, {0.9, 0.1, 0.5, 0.5, 0.2, 0.8});
  auto map = g.RunMaxProduct();
  EXPECT_TRUE(map.converged);
  EXPECT_EQ(map.assignment, g.ExactMap());
}

TEST(MaxProductTest, EvidenceRespected) {
  FactorGraph g;
  size_t v0 = g.AddVariable(2), v1 = g.AddVariable(2);
  g.AddFactor({v0, v1}, {0.9, 0.1, 0.1, 0.9});  // strong agreement coupling
  g.SetEvidence(v0, 1);
  auto map = g.RunMaxProduct();
  EXPECT_EQ(map.assignment[v0], 1u);
  EXPECT_EQ(map.assignment[v1], 1u);
}

/// Property: max-product equals exhaustive MAP on random trees.
class MaxProductTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxProductTreeProperty, MatchesExactMap) {
  ppdp::Rng rng(GetParam());
  FactorGraph g;
  const size_t n = 3 + rng.Uniform(4);
  std::vector<size_t> vars;
  for (size_t i = 0; i < n; ++i) vars.push_back(g.AddVariable(2 + rng.Uniform(2)));
  for (size_t i = 1; i < n; ++i) {
    size_t parent = rng.Uniform(i);
    std::vector<double> table(g.domain(vars[parent]) * g.domain(vars[i]));
    for (double& t : table) t = rng.UniformReal() + 0.05;
    g.AddFactor({vars[parent], vars[i]}, std::move(table));
  }
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> prior(g.domain(vars[i]));
    for (double& p : prior) p = rng.UniformReal() + 0.05;
    g.AddFactor({vars[i]}, std::move(prior));
  }
  FactorGraph::BpOptions options;
  options.max_iterations = 100;
  auto map = g.RunMaxProduct(options);
  EXPECT_EQ(map.assignment, g.ExactMap());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxProductTreeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(ReconstructionTest, PublishedEntriesPassThrough) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  auto reconstruction = ReconstructGenome(catalog, view);
  // Everything is published, so the MAP must echo the evidence.
  EXPECT_EQ(reconstruction.genotypes, view.individual.genotypes);
}

TEST(ReconstructionTest, HiddenRiskLocusReconstructedViaTrait) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  view.snp_known[4] = false;          // hide s5 (true genotype 0)
  view.trait_known = {true, true, true};  // attacker knows t3 is absent
  auto reconstruction = ReconstructGenome(catalog, view);
  // With t3 absent, the control-RAF-0.2 mode is the non-risk homozygote.
  EXPECT_EQ(reconstruction.genotypes[4], 0);
  EXPECT_EQ(reconstruction.traits[2], kTraitAbsent);
}

// --- Privacy metrics ---------------------------------------------------------

TEST(PrivacyMetricsTest, EntropyPrivacyExtremes) {
  EXPECT_DOUBLE_EQ(EntropyPrivacy({1.0, 0.0}), 0.0);
  EXPECT_NEAR(EntropyPrivacy({0.5, 0.5}), 1.0, 1e-12);
  EXPECT_NEAR(EntropyPrivacy({1.0 / 3, 1.0 / 3, 1.0 / 3}), 1.0, 1e-12);
}

TEST(PrivacyMetricsTest, EstimationErrorExtremes) {
  EXPECT_DOUBLE_EQ(EstimationError({1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(EstimationError({0.0, 0.0, 1.0}), 0.0);
  // Uniform binary: guess either way, error 0.5.
  EXPECT_NEAR(EstimationError({0.5, 0.5}), 0.5, 1e-12);
}

TEST(PrivacyMetricsTest, DeltaPrivacyCheck) {
  std::vector<std::vector<double>> marginals = {{0.5, 0.5}, {0.4, 0.6}};
  EXPECT_TRUE(SatisfiesDeltaPrivacy(marginals, 0.9));
  marginals.push_back({0.99, 0.01});
  EXPECT_FALSE(SatisfiesDeltaPrivacy(marginals, 0.9));
}

TEST(PrivacyMetricsTest, ReleasedSnpCount) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  EXPECT_EQ(ReleasedSnpCount(view), 5u);
  view.snp_known[0] = false;
  EXPECT_EQ(ReleasedSnpCount(view), 4u);
}

// --- Neighbor SNPs and GPUT --------------------------------------------------

TEST(NeighborTest, Fig51TraitClosure) {
  GwasCatalog catalog = Fig51Catalog();
  // t1 directly: s1, s2. s2 shared with t2 -> case 2 adds s3, s4. t3 shares
  // nothing -> s5 excluded.
  EXPECT_EQ(NeighborSnpsOfTrait(catalog, 0), (std::vector<size_t>{0, 1, 2, 3}));
  // t3 is isolated from the rest: only s5.
  EXPECT_EQ(NeighborSnpsOfTrait(catalog, 2), (std::vector<size_t>{4}));
}

TEST(NeighborTest, Fig51SnpClosure) {
  GwasCatalog catalog = Fig51Catalog();
  // s1's closure through t1/t2 is {s2, s3, s4} (itself excluded).
  EXPECT_EQ(NeighborSnpsOfSnp(catalog, 0), (std::vector<size_t>{1, 2, 3}));
}

TEST(GputTest, SanitizationRaisesPrivacyMonotonically) {
  // Target t3, whose zero-risk genotype at s5 makes the attacker confident
  // (entropy ≈ 0.37); hiding s5 is the vulnerable move.
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  // The best reachable privacy for t3 is its prior entropy H(0.1)/log 2 ≈
  // 0.469 (nothing published), so aim just below that.
  GputOptions options;
  options.delta = 0.45;
  GputResult result = GreedySanitize(catalog, view, /*target_traits=*/{2}, options);
  ASSERT_GE(result.privacy_trace.size(), 2u);
  for (size_t i = 1; i < result.privacy_trace.size(); ++i) {
    EXPECT_GE(result.privacy_trace[i], result.privacy_trace[i - 1] - 1e-9);
  }
  EXPECT_EQ(result.sanitized, (std::vector<size_t>{4}));
  EXPECT_TRUE(result.satisfied);
}

TEST(GputTest, AchievableDeltaIsSatisfied) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  GputOptions options;
  options.delta = 0.6;
  TargetView sanitized;
  GputResult result = GreedySanitize(catalog, view, {0}, options, &sanitized);
  if (result.satisfied) {
    auto attack = RunGenomeInference(catalog, sanitized, AttackMethod::kBeliefPropagation);
    EXPECT_GE(EntropyPrivacy(attack.trait_marginals[0]), options.delta - 1e-9);
  }
  EXPECT_EQ(result.released + result.sanitized.size(), 5u);
}

TEST(GputTest, MaxSanitizedCapRespected) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  GputOptions options;
  options.delta = 1.0;  // unreachable, forces the cap to bind
  options.max_sanitized = 2;
  GputResult result = GreedySanitize(catalog, view, {0}, options);
  EXPECT_LE(result.sanitized.size(), 2u);
}

TEST(GputTest, HidingAllEvidenceRestoresPriorForIsolatedTrait) {
  GwasCatalog catalog = Fig51Catalog();
  TargetView view = Fig51View(catalog);
  for (size_t s = 0; s < 5; ++s) view.snp_known[s] = false;
  auto result = RunGenomeInference(catalog, view, AttackMethod::kBeliefPropagation);
  // t3 shares no SNPs with other traits, so with nothing published its
  // posterior is exactly the prevalence prior. (t1/t2 stay weakly coupled
  // through the shared SNP s2 even without evidence — that is the model of
  // Eq. 5.2, verified against exact inference in BpMatchesExactOnFig51.)
  EXPECT_NEAR(result.trait_marginals[2][1], 0.1, 1e-6);
  // The NB baseline treats traits independently, so it does return priors.
  auto nb = RunGenomeInference(catalog, view, AttackMethod::kNaiveBayes);
  for (size_t t = 0; t < 3; ++t) EXPECT_NEAR(nb.trait_marginals[t][1], 0.1, 1e-12);
}

// ------------------------------------------------------ BP kernel exactness

/// A factor graph as plain data: built into a FactorGraph, and solved by
/// the reference kernel below (the nested-vector flooding schedule the flat
/// kernel replaced, kept verbatim in its arithmetic).
struct PlainGraph {
  struct Factor {
    std::vector<size_t> variables;
    std::vector<double> table;
  };
  std::vector<size_t> domains;
  std::vector<int64_t> evidence;
  std::vector<Factor> factors;
  std::vector<std::vector<size_t>> factors_of_variable;

  FactorGraph Build() const {
    FactorGraph graph;
    for (size_t d : domains) graph.AddVariable(d);
    for (const Factor& f : factors) graph.AddFactor(f.variables, f.table);
    for (size_t v = 0; v < domains.size(); ++v) {
      if (evidence[v] >= 0) graph.SetEvidence(v, static_cast<size_t>(evidence[v]));
    }
    return graph;
  }
};

struct ReferenceMessages {
  std::vector<std::vector<std::vector<double>>> to_factor;
  std::vector<std::vector<std::vector<double>>> to_variable;
  size_t iterations = 0;
  bool converged = false;
};

ReferenceMessages ReferenceMessagePassing(const PlainGraph& g,
                                          const FactorGraph::BpOptions& options,
                                          bool max_product) {
  ReferenceMessages messages;
  auto& to_factor = messages.to_factor;
  auto& to_variable = messages.to_variable;
  to_factor.resize(g.factors.size());
  to_variable.resize(g.factors.size());
  for (size_t f = 0; f < g.factors.size(); ++f) {
    const auto& vars = g.factors[f].variables;
    to_factor[f].resize(vars.size());
    to_variable[f].resize(vars.size());
    for (size_t k = 0; k < vars.size(); ++k) {
      double uniform = 1.0 / static_cast<double>(g.domains[vars[k]]);
      to_factor[f][k].assign(g.domains[vars[k]], uniform);
      to_variable[f][k].assign(g.domains[vars[k]], uniform);
    }
  }
  std::vector<double> factor_change(g.factors.size(), 0.0);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t f = 0; f < g.factors.size(); ++f) {
      const auto& vars = g.factors[f].variables;
      for (size_t k = 0; k < vars.size(); ++k) {
        size_t v = vars[k];
        if (g.evidence[v] >= 0) {
          std::vector<double> msg(g.domains[v], 0.0);
          msg[static_cast<size_t>(g.evidence[v])] = 1.0;
          to_factor[f][k] = std::move(msg);
          continue;
        }
        std::vector<double> msg(g.domains[v], 1.0);
        for (size_t other_f : g.factors_of_variable[v]) {
          if (other_f == f) continue;
          const auto& other_vars = g.factors[other_f].variables;
          for (size_t k2 = 0; k2 < other_vars.size(); ++k2) {
            if (other_vars[k2] != v) continue;
            for (size_t x = 0; x < g.domains[v]; ++x) msg[x] *= to_variable[other_f][k2][x];
          }
        }
        NormalizeInPlace(msg);
        to_factor[f][k] = std::move(msg);
      }
    }
    for (size_t f = 0; f < g.factors.size(); ++f) {
      const auto& vars = g.factors[f].variables;
      std::vector<size_t> assignment(vars.size(), 0);
      std::vector<std::vector<double>> fresh(vars.size());
      for (size_t k = 0; k < vars.size(); ++k) fresh[k].assign(g.domains[vars[k]], 0.0);
      for (;;) {
        size_t index = 0;
        for (size_t k = 0; k < vars.size(); ++k) {
          index = index * g.domains[vars[k]] + assignment[k];
        }
        double value = g.factors[f].table[index];
        if (value > 0.0) {
          for (size_t k = 0; k < vars.size(); ++k) {
            double partial = value;
            for (size_t k2 = 0; k2 < vars.size(); ++k2) {
              if (k2 == k) continue;
              partial *= to_factor[f][k2][assignment[k2]];
            }
            if (max_product) {
              fresh[k][assignment[k]] = std::max(fresh[k][assignment[k]], partial);
            } else {
              fresh[k][assignment[k]] += partial;
            }
          }
        }
        size_t pos = vars.size();
        bool wrapped = false;
        for (;;) {
          if (pos == 0) {
            wrapped = true;
            break;
          }
          --pos;
          if (++assignment[pos] < g.domains[vars[pos]]) break;
          assignment[pos] = 0;
        }
        if (wrapped) break;
      }
      double change = 0.0;
      for (size_t k = 0; k < vars.size(); ++k) {
        NormalizeInPlace(fresh[k]);
        if (options.damping > 0.0) {
          for (size_t x = 0; x < fresh[k].size(); ++x) {
            fresh[k][x] = (1.0 - options.damping) * fresh[k][x] +
                          options.damping * to_variable[f][k][x];
          }
          NormalizeInPlace(fresh[k]);
        }
        change = std::max(change, L1Distance(fresh[k], to_variable[f][k]));
        to_variable[f][k] = std::move(fresh[k]);
      }
      factor_change[f] = change;
    }
    double max_change = 0.0;
    for (double change : factor_change) max_change = std::max(max_change, change);
    messages.iterations = iter + 1;
    if (max_change < options.tolerance) {
      messages.converged = true;
      break;
    }
  }
  return messages;
}

std::vector<std::vector<double>> ReferenceBeliefs(const PlainGraph& g,
                                                  const ReferenceMessages& messages) {
  std::vector<std::vector<double>> beliefs(g.domains.size());
  for (size_t v = 0; v < g.domains.size(); ++v) {
    if (g.evidence[v] >= 0) {
      std::vector<double> one_hot(g.domains[v], 0.0);
      one_hot[static_cast<size_t>(g.evidence[v])] = 1.0;
      beliefs[v] = std::move(one_hot);
      continue;
    }
    std::vector<double> belief(g.domains[v], 1.0);
    for (size_t f : g.factors_of_variable[v]) {
      const auto& vars = g.factors[f].variables;
      for (size_t k = 0; k < vars.size(); ++k) {
        if (vars[k] != v) continue;
        for (size_t x = 0; x < g.domains[v]; ++x) belief[x] *= messages.to_variable[f][k][x];
      }
    }
    NormalizeInPlace(belief);
    beliefs[v] = std::move(belief);
  }
  return beliefs;
}

/// Random loopy graph: 3-12 variables of domain 2-3, unary, pairwise and
/// ternary factors with some zero entries, evidence on about a quarter of
/// the variables.
PlainGraph RandomPlainGraph(Rng& rng) {
  PlainGraph g;
  const size_t num_variables = 3 + rng.Uniform(10);
  for (size_t v = 0; v < num_variables; ++v) {
    g.domains.push_back(2 + rng.Uniform(2));
    g.evidence.push_back(rng.Bernoulli(0.25) ? static_cast<int64_t>(rng.Uniform(g.domains[v]))
                                             : -1);
  }
  g.factors_of_variable.resize(num_variables);
  const size_t num_factors = num_variables + rng.Uniform(2 * num_variables);
  for (size_t f = 0; f < num_factors; ++f) {
    const size_t arity = 1 + rng.Uniform(3);
    std::vector<size_t> order(num_variables);
    for (size_t v = 0; v < num_variables; ++v) order[v] = v;
    rng.Shuffle(order);
    PlainGraph::Factor factor;
    factor.variables.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(arity));
    size_t entries = 1;
    for (size_t v : factor.variables) entries *= g.domains[v];
    for (size_t i = 0; i < entries; ++i) {
      factor.table.push_back(rng.Bernoulli(0.1) ? 0.0 : 0.05 + rng.UniformReal());
    }
    for (size_t v : factor.variables) g.factors_of_variable[v].push_back(g.factors.size());
    g.factors.push_back(std::move(factor));
  }
  return g;
}

void ExpectSameBits(const std::vector<std::vector<double>>& got,
                    const std::vector<std::vector<double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_EQ(got[v].size(), want[v].size()) << "variable " << v;
    for (size_t x = 0; x < got[v].size(); ++x) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[v][x]), std::bit_cast<uint64_t>(want[v][x]))
          << "variable " << v << " state " << x;
    }
  }
}

TEST(FactorGraphTest, FlatKernelMatchesReferenceKernelBitForBit) {
  Rng rng(2024);
  size_t unconverged = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const PlainGraph plain = RandomPlainGraph(rng);
    const FactorGraph graph = plain.Build();
    for (double damping : {0.0, 0.3}) {
      for (size_t max_iterations : {size_t{50}, size_t{2}}) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " damping " << damping
                                          << " max_iterations " << max_iterations);
        FactorGraph::BpOptions options;
        options.damping = damping;
        options.max_iterations = max_iterations;

        const ReferenceMessages sum = ReferenceMessagePassing(plain, options, false);
        const std::vector<std::vector<double>> want = ReferenceBeliefs(plain, sum);
        const FactorGraph::BpResult bp = graph.RunBeliefPropagation(options);
        EXPECT_EQ(bp.iterations, sum.iterations);
        EXPECT_EQ(bp.converged, sum.converged);
        ExpectSameBits(bp.marginals, want);
        if (!sum.converged) ++unconverged;

        // The target-only run reads the same messages.
        std::vector<size_t> picked;
        std::vector<std::vector<double>> picked_want;
        for (size_t v = plain.domains.size(); v-- > 0;) {
          if (v % 2 == 0) continue;
          picked.push_back(v);
          picked_want.push_back(want[v]);
        }
        const FactorGraph::BpResult some = graph.RunBeliefPropagation(options, picked);
        EXPECT_EQ(some.iterations, sum.iterations);
        EXPECT_EQ(some.converged, sum.converged);
        ExpectSameBits(some.marginals, picked_want);

        const ReferenceMessages max = ReferenceMessagePassing(plain, options, true);
        const FactorGraph::MapResult map = graph.RunMaxProduct(options);
        EXPECT_EQ(map.iterations, max.iterations);
        EXPECT_EQ(map.converged, max.converged);
        std::vector<size_t> want_assignment;
        for (const std::vector<double>& belief : ReferenceBeliefs(plain, max)) {
          want_assignment.push_back(ArgMax(belief));
        }
        EXPECT_EQ(map.assignment, want_assignment);
      }
    }
  }
  // The iteration cap must actually stop some runs short.
  EXPECT_GT(unconverged, 0u);
}

// -------------------------------------------- incremental BP exactness

/// Random graph that evidence splits into several components: 5-16
/// variables of domain 2-3, about half clamped, plus one clamped variable
/// with no factor; unary, pairwise and ternary factors (Mendelian tables on
/// three 3-state variables), loopy more often than not.
PlainGraph RandomComponentGraph(Rng& rng) {
  PlainGraph g;
  const size_t num_variables = 5 + rng.Uniform(12);
  for (size_t v = 0; v < num_variables; ++v) {
    g.domains.push_back(2 + rng.Uniform(2));
    g.evidence.push_back(rng.Bernoulli(0.5) ? static_cast<int64_t>(rng.Uniform(g.domains[v]))
                                            : -1);
  }
  g.factors_of_variable.resize(num_variables + 1);
  const size_t num_factors = num_variables / 2 + rng.Uniform(num_variables);
  for (size_t f = 0; f < num_factors; ++f) {
    const size_t arity = 1 + rng.Uniform(3);
    std::vector<size_t> order(num_variables);
    for (size_t v = 0; v < num_variables; ++v) order[v] = v;
    rng.Shuffle(order);
    PlainGraph::Factor factor;
    factor.variables.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(arity));
    size_t entries = 1;
    for (size_t v : factor.variables) entries *= g.domains[v];
    if (entries == 27 && rng.Bernoulli(0.5)) {
      factor.table = MendelianTable();
    } else {
      for (size_t i = 0; i < entries; ++i) {
        factor.table.push_back(rng.Bernoulli(0.1) ? 0.0 : 0.05 + rng.UniformReal());
      }
    }
    for (size_t v : factor.variables) g.factors_of_variable[v].push_back(g.factors.size());
    g.factors.push_back(std::move(factor));
  }
  g.domains.push_back(3);
  g.evidence.push_back(1);
  return g;
}

/// Whether `a` and `b` share a component: joined by factors through
/// unclamped variables, or the same variable.
bool SameComponent(const PlainGraph& g, size_t a, size_t b) {
  std::vector<bool> seen(g.domains.size(), false);
  std::vector<size_t> stack = {a};
  seen[a] = true;
  while (!stack.empty()) {
    const size_t v = stack.back();
    stack.pop_back();
    if (v == b) return true;
    if (v != a && g.evidence[v] >= 0) continue;
    for (size_t f : g.factors_of_variable[v]) {
      for (size_t u : g.factors[f].variables) {
        if (!seen[u] && g.evidence[u] < 0) {
          seen[u] = true;
          stack.push_back(u);
        }
      }
    }
  }
  return false;
}

void ExpectSameResult(const FactorGraph::BpResult& got, const FactorGraph::BpResult& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  ExpectSameBits(got.marginals, want.marginals);
}

TEST(IncrementalBpTest, MatchesWholeGraphSolvesBitForBit) {
  Rng rng(2025);
  size_t candidates = 0, outside = 0, factorless = 0, unconverged = 0, late = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const PlainGraph start = RandomComponentGraph(rng);
    // Every variable with an odd id and the factorless one are read.
    std::vector<size_t> read;
    for (size_t v = 1; v < start.domains.size(); v += 2) read.push_back(v);
    if (read.back() != start.domains.size() - 1) read.push_back(start.domains.size() - 1);
    for (double damping : {0.0, 0.3}) {
      for (size_t max_iterations : {size_t{50}, size_t{3}}) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " damping " << damping
                                          << " max_iterations " << max_iterations);
        FactorGraph::BpOptions options;
        options.damping = damping;
        options.max_iterations = max_iterations;
        PlainGraph plain = start;
        FactorGraph graph = plain.Build();
        IncrementalBp bp(&graph, options, read);
        ExpectSameResult(bp.current(), plain.Build().RunBeliefPropagation(options, read));
        // Score every candidate, pick one at random, and go on until two
        // picks are made or nothing is clamped.
        for (int step = 0; step < 3; ++step) {
          std::vector<size_t> clamped;
          for (size_t v = 0; v < plain.domains.size(); ++v) {
            if (plain.evidence[v] >= 0) clamped.push_back(v);
          }
          if (clamped.empty()) break;
          for (size_t v : clamped) {
            SCOPED_TRACE(::testing::Message() << "step " << step << " freeing " << v);
            PlainGraph freed = plain;
            freed.evidence[v] = -1;
            const FactorGraph::BpResult want = freed.Build().RunBeliefPropagation(options, read);
            ExpectSameResult(bp.SolveFreed(v), want);
            ++candidates;
            if (!want.converged) ++unconverged;
            if (step > 0) ++late;
            if (freed.factors_of_variable[v].empty()) ++factorless;
            for (size_t r : read) {
              if (freed.evidence[r] < 0 && !freed.factors_of_variable[r].empty() &&
                  !SameComponent(freed, v, r)) {
                ++outside;
                break;
              }
            }
          }
          if (step == 2) break;
          const size_t pick = clamped[rng.Uniform(clamped.size())];
          bp.Free(pick);
          plain.evidence[pick] = -1;
          ExpectSameResult(bp.current(), plain.Build().RunBeliefPropagation(options, read));
        }
      }
    }
  }
  // Each case the component solve handles apart must actually occur.
  EXPECT_GT(candidates, 3000u);
  EXPECT_GT(outside, 1000u);
  EXPECT_GT(factorless, 500u);
  EXPECT_GT(unconverged, 500u);
  EXPECT_GT(late, 1500u);
}

TEST(IncrementalBpDeathTest, FreeingAnUnclampedVariableDies) {
  FactorGraph graph;
  const size_t a = graph.AddVariable(2);
  const size_t b = graph.AddVariable(2);
  graph.AddFactor({a, b}, {1.0, 2.0, 3.0, 4.0});
  graph.SetEvidence(a, 1);
  IncrementalBp bp(&graph, {}, {b});
  EXPECT_DEATH(bp.SolveFreed(b), "not clamped");
  bp.Free(a);
  EXPECT_DEATH(bp.Free(a), "not clamped");
}

// ------------------------------------------------- greedy GPUT equivalence

/// The greedy as it was before the attack graph was built once per call:
/// every candidate rebuilds the graph and re-solves every marginal.
GputResult ReferenceGreedySanitize(const GwasCatalog& catalog, TargetView view,
                                   const std::vector<size_t>& target_traits,
                                   const GputOptions& options, TargetView* sanitized_view) {
  auto evaluate = [&](const TargetView& v) {
    GenomeAttackResult attack = RunGenomeInference(catalog, v, options.method, options.bp);
    return EvaluateTraitPrivacy(attack, target_traits);
  };
  std::set<size_t> pool;
  for (size_t t : target_traits) {
    for (size_t s : NeighborSnpsOfTrait(catalog, t)) {
      if (view.snp_known[s] && view.individual.genotypes[s] != kUnknownGenotype) pool.insert(s);
    }
  }
  GputResult result;
  PrivacyReport current = evaluate(view);
  result.privacy_trace.push_back(current.min_entropy);
  while (current.min_entropy < options.delta && !pool.empty() &&
         result.sanitized.size() < options.max_sanitized) {
    size_t best_snp = catalog.num_snps();
    PrivacyReport best_report;
    double best_key = -1.0;
    for (size_t s : pool) {
      view.snp_known[s] = false;
      PrivacyReport report = evaluate(view);
      view.snp_known[s] = true;
      double key = report.min_entropy + 1e-3 * report.mean_entropy;
      if (key > best_key) {
        best_key = key;
        best_snp = s;
        best_report = report;
      }
    }
    if (best_snp == catalog.num_snps()) break;
    if (best_report.min_entropy <= current.min_entropy + 1e-12 &&
        best_report.mean_entropy <= current.mean_entropy + 1e-12) {
      break;
    }
    view.snp_known[best_snp] = false;
    pool.erase(best_snp);
    current = best_report;
    result.sanitized.push_back(best_snp);
    result.privacy_trace.push_back(current.min_entropy);
  }
  result.satisfied = current.min_entropy >= options.delta - 1e-12;
  result.released = ReleasedSnpCount(view);
  *sanitized_view = std::move(view);
  return result;
}

TEST(GputTest, GraphReuseMatchesPerCandidateRebuildExactly) {
  size_t steps = 0;
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    SyntheticCatalogConfig config;
    config.num_snps = 48;
    config.snps_per_trait = 3;
    GwasCatalog catalog = GenerateSyntheticCatalog(config, rng);
    if (seed != 1) {
      // LD pairs between random loci, associated or not.
      for (int i = 0; i < 8; ++i) {
        const size_t a = rng.Uniform(config.num_snps);
        size_t b = rng.Uniform(config.num_snps);
        if (b == a) b = (a + 1) % config.num_snps;
        catalog.AddLdPair({a, b, 0.3 + 0.6 * rng.UniformReal()});
      }
    }
    const Individual person = SampleIndividual(catalog, rng);
    TargetView view = MakeTargetView(catalog, person, /*known_traits=*/{2});
    for (size_t s = 0; s < catalog.num_snps(); ++s) {
      if (rng.Bernoulli(0.15)) view.snp_known[s] = false;
      if (rng.Bernoulli(0.05)) view.individual.genotypes[s] = kUnknownGenotype;
    }
    for (const std::vector<size_t>& targets :
         {std::vector<size_t>{0}, std::vector<size_t>{0, 3, 5}}) {
      for (double delta : {0.2, 0.4, 0.9}) {
        for (AttackMethod method : {AttackMethod::kBeliefPropagation, AttackMethod::kNaiveBayes}) {
          for (size_t cap : {size_t{0}, size_t{1}, size_t{3}, SIZE_MAX}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << " targets " << targets.size() << " delta "
                         << delta << " method " << AttackMethodName(method) << " cap " << cap);
            GputOptions options;
            options.delta = delta;
            options.method = method;
            options.max_sanitized = cap;
            TargetView want_view, got_view;
            const GputResult want =
                ReferenceGreedySanitize(catalog, view, targets, options, &want_view);
            const GputResult got = GreedySanitize(catalog, view, targets, options, &got_view);
            EXPECT_EQ(got.sanitized, want.sanitized);
            EXPECT_EQ(got.privacy_trace, want.privacy_trace);
            EXPECT_EQ(got.satisfied, want.satisfied);
            EXPECT_EQ(got.released, want.released);
            EXPECT_EQ(got_view.snp_known, want_view.snp_known);
            steps += got.sanitized.size();
          }
        }
      }
    }
  }
  // The sweep must exercise real multi-step greedy runs.
  EXPECT_GT(steps, 100u);
}

}  // namespace
}  // namespace ppdp::genomics
