#include "genomics/inference_attack.h"

#include <limits>

#include "common/logging.h"
#include "common/math_util.h"

namespace ppdp::genomics {

const char* AttackMethodName(AttackMethod method) {
  switch (method) {
    case AttackMethod::kBeliefPropagation:
      return "BeliefPropagation";
    case AttackMethod::kNaiveBayes:
      return "NaiveBayes";
  }
  return "?";
}

void AddIndividualToAttackGraph(FactorGraph& graph, const GwasCatalog& catalog,
                                const Individual& individual, const std::vector<bool>& snp_known,
                                const std::vector<bool>& trait_known,
                                std::vector<size_t>* trait_variable,
                                std::vector<size_t>* snp_variable) {
  PPDP_CHECK(trait_variable != nullptr && snp_variable != nullptr);
  PPDP_CHECK(individual.genotypes.size() == catalog.num_snps() &&
             snp_known.size() == catalog.num_snps() &&
             individual.traits.size() == catalog.num_traits() &&
             trait_known.size() == catalog.num_traits())
      << "individual or its published flags do not match the catalog";
  trait_variable->assign(catalog.num_traits(), std::numeric_limits<size_t>::max());
  snp_variable->assign(catalog.num_snps(), std::numeric_limits<size_t>::max());

  // Trait variables with prevalence priors.
  for (size_t t = 0; t < catalog.num_traits(); ++t) {
    size_t var = graph.AddVariable(2);
    (*trait_variable)[t] = var;
    double p = catalog.traits()[t].prevalence;
    graph.AddFactor({var}, {1.0 - p, p});
  }
  // SNP variables (associated loci only) and the pairwise factors
  // f_ji(s_i, t_j) = P(s_i | t_j).
  for (const SnpTraitAssociation& a : catalog.associations()) {
    size_t& snp_var = (*snp_variable)[a.snp];
    if (snp_var == std::numeric_limits<size_t>::max()) {
      snp_var = graph.AddVariable(kNumGenotypes);
    }
    std::vector<double> given_absent = GenotypeGivenTrait(a.control_raf, a.odds_ratio, false);
    std::vector<double> given_present = GenotypeGivenTrait(a.control_raf, a.odds_ratio, true);
    // Table over (snp, trait), trait fastest: index = g*2 + t.
    std::vector<double> table(static_cast<size_t>(kNumGenotypes) * 2);
    for (int g = 0; g < kNumGenotypes; ++g) {
      table[static_cast<size_t>(g) * 2 + 0] = given_absent[static_cast<size_t>(g)];
      table[static_cast<size_t>(g) * 2 + 1] = given_present[static_cast<size_t>(g)];
    }
    graph.AddFactor({snp_var, (*trait_variable)[a.trait]}, std::move(table));
  }

  // Pairwise LD factors φ(g_a, g_b) = corr·[g_b = g_a] + (1-corr)·HWE_b(g_b):
  // the correlation channel that lets a removed SNP be recovered from a
  // published neighbor (Section 5.1's ApoE example). Variables are created
  // on demand for LD-only loci.
  for (const LdPair& ld : catalog.ld_pairs()) {
    for (size_t snp : {ld.a, ld.b}) {
      if ((*snp_variable)[snp] == std::numeric_limits<size_t>::max()) {
        (*snp_variable)[snp] = graph.AddVariable(kNumGenotypes);
      }
    }
    std::vector<double> hw = HardyWeinberg(catalog.BackgroundRaf(ld.b));
    std::vector<double> table(static_cast<size_t>(kNumGenotypes) * kNumGenotypes);
    for (int ga = 0; ga < kNumGenotypes; ++ga) {
      for (int gb = 0; gb < kNumGenotypes; ++gb) {
        double p = (1.0 - ld.correlation) * hw[static_cast<size_t>(gb)];
        if (ga == gb) p += ld.correlation;
        table[static_cast<size_t>(ga) * kNumGenotypes + static_cast<size_t>(gb)] = p;
      }
    }
    graph.AddFactor({(*snp_variable)[ld.a], (*snp_variable)[ld.b]}, std::move(table));
  }

  // Evidence: the published genotypes and trait statuses.
  for (size_t s = 0; s < catalog.num_snps(); ++s) {
    if (!snp_known[s]) continue;
    Genotype g = individual.genotypes[s];
    if (g == kUnknownGenotype) continue;
    if ((*snp_variable)[s] == std::numeric_limits<size_t>::max()) continue;
    graph.SetEvidence((*snp_variable)[s], static_cast<size_t>(g));
  }
  for (size_t t = 0; t < catalog.num_traits(); ++t) {
    if (!trait_known[t]) continue;
    TraitStatus status = individual.traits[t];
    if (status == kUnknownTrait) continue;
    graph.SetEvidence((*trait_variable)[t], static_cast<size_t>(status));
  }
}

FactorGraph BuildAttackGraph(const GwasCatalog& catalog, const TargetView& view,
                             std::vector<size_t>* trait_variable,
                             std::vector<size_t>* snp_variable) {
  FactorGraph graph;
  AddIndividualToAttackGraph(graph, catalog, view.individual, view.snp_known, view.trait_known,
                             trait_variable, snp_variable);
  return graph;
}

GenomeAttackResult ReadAttackMarginals(const GwasCatalog& catalog, const FactorGraph::BpResult& bp,
                                       const std::vector<size_t>& trait_variable,
                                       const std::vector<size_t>& snp_variable) {
  GenomeAttackResult result;
  result.bp_iterations = bp.iterations;
  result.converged = bp.converged;
  for (size_t var : trait_variable) result.trait_marginals.push_back(bp.marginals[var]);
  for (size_t s = 0; s < snp_variable.size(); ++s) {
    result.snp_marginals.push_back(snp_variable[s] == std::numeric_limits<size_t>::max()
                                       ? HardyWeinberg(catalog.BackgroundRaf(s))
                                       : bp.marginals[snp_variable[s]]);
  }
  return result;
}

namespace {

GenomeAttackResult NaiveBayesInference(const GwasCatalog& catalog, const TargetView& view) {
  GenomeAttackResult result;
  result.trait_marginals.resize(catalog.num_traits());
  result.snp_marginals.resize(catalog.num_snps());

  // Trait posteriors: prior times the likelihood of the published genotypes
  // of directly associated SNPs (attribute-independence assumption).
  for (size_t t = 0; t < catalog.num_traits(); ++t) {
    if (view.trait_known[t] && view.individual.traits[t] != kUnknownTrait) {
      result.trait_marginals[t] = {view.individual.traits[t] == kTraitAbsent ? 1.0 : 0.0,
                                   view.individual.traits[t] == kTraitPresent ? 1.0 : 0.0};
      continue;
    }
    double p = catalog.traits()[t].prevalence;
    std::vector<double> posterior = {1.0 - p, p};
    for (size_t id : catalog.AssociationsOfTrait(t)) {
      const SnpTraitAssociation& a = catalog.associations()[id];
      if (!view.snp_known[a.snp]) continue;
      Genotype g = view.individual.genotypes[a.snp];
      if (g == kUnknownGenotype) continue;
      posterior[0] *=
          GenotypeGivenTrait(a.control_raf, a.odds_ratio, false)[static_cast<size_t>(g)];
      posterior[1] *=
          GenotypeGivenTrait(a.control_raf, a.odds_ratio, true)[static_cast<size_t>(g)];
    }
    NormalizeInPlace(posterior);
    result.trait_marginals[t] = std::move(posterior);
  }

  // SNP posteriors: mixture over each adjacent trait's posterior, combined
  // multiplicatively across associations.
  for (size_t s = 0; s < catalog.num_snps(); ++s) {
    if (view.snp_known[s] && view.individual.genotypes[s] != kUnknownGenotype) {
      std::vector<double> one_hot(kNumGenotypes, 0.0);
      one_hot[static_cast<size_t>(view.individual.genotypes[s])] = 1.0;
      result.snp_marginals[s] = std::move(one_hot);
      continue;
    }
    const auto& assoc_ids = catalog.AssociationsOfSnp(s);
    if (assoc_ids.empty()) {
      result.snp_marginals[s] = HardyWeinberg(catalog.BackgroundRaf(s));
      continue;
    }
    std::vector<double> combined(kNumGenotypes, 1.0);
    for (size_t id : assoc_ids) {
      const SnpTraitAssociation& a = catalog.associations()[id];
      const auto& trait_post = result.trait_marginals[a.trait];
      std::vector<double> absent = GenotypeGivenTrait(a.control_raf, a.odds_ratio, false);
      std::vector<double> present = GenotypeGivenTrait(a.control_raf, a.odds_ratio, true);
      for (int g = 0; g < kNumGenotypes; ++g) {
        combined[static_cast<size_t>(g)] *= trait_post[0] * absent[static_cast<size_t>(g)] +
                                            trait_post[1] * present[static_cast<size_t>(g)];
      }
    }
    NormalizeInPlace(combined);
    result.snp_marginals[s] = std::move(combined);
  }
  return result;
}

}  // namespace

GenomeReconstruction ReconstructGenome(const GwasCatalog& catalog, const TargetView& view,
                                       const FactorGraph::BpOptions& options) {
  std::vector<size_t> trait_variable, snp_variable;
  FactorGraph graph = BuildAttackGraph(catalog, view, &trait_variable, &snp_variable);
  FactorGraph::MapResult map = graph.RunMaxProduct(options);

  GenomeReconstruction result;
  result.converged = map.converged;
  result.traits.resize(catalog.num_traits());
  for (size_t t = 0; t < catalog.num_traits(); ++t) {
    result.traits[t] = static_cast<TraitStatus>(map.assignment[trait_variable[t]]);
  }
  result.genotypes.resize(catalog.num_snps());
  for (size_t s = 0; s < catalog.num_snps(); ++s) {
    if (snp_variable[s] == std::numeric_limits<size_t>::max()) {
      std::vector<double> hw = HardyWeinberg(catalog.BackgroundRaf(s));
      result.genotypes[s] = static_cast<Genotype>(ArgMax(hw));
    } else {
      result.genotypes[s] = static_cast<Genotype>(map.assignment[snp_variable[s]]);
    }
  }
  return result;
}

GenomeAttackResult RunGenomeInference(const GwasCatalog& catalog, const TargetView& view,
                                      AttackMethod method,
                                      const FactorGraph::BpOptions& options) {
  PPDP_CHECK(view.snp_known.size() == catalog.num_snps());
  PPDP_CHECK(view.trait_known.size() == catalog.num_traits());
  if (method == AttackMethod::kNaiveBayes) return NaiveBayesInference(catalog, view);

  std::vector<size_t> trait_variable, snp_variable;
  FactorGraph graph = BuildAttackGraph(catalog, view, &trait_variable, &snp_variable);
  return ReadAttackMarginals(catalog, graph.RunBeliefPropagation(options), trait_variable,
                             snp_variable);
}

}  // namespace ppdp::genomics
