#ifndef PPDP_GENOMICS_INFERENCE_ATTACK_H_
#define PPDP_GENOMICS_INFERENCE_ATTACK_H_

#include <vector>

#include "genomics/factor_graph.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"

namespace ppdp::genomics {

/// The two prediction methods compared in Fig 5.2: the chapter's factor
/// graph + belief propagation attack, and the Naive Bayes baseline.
enum class AttackMethod { kBeliefPropagation, kNaiveBayes };

const char* AttackMethodName(AttackMethod method);

/// Posterior marginals of every SNP and trait under the attacker's model.
struct GenomeAttackResult {
  std::vector<std::vector<double>> snp_marginals;    ///< per SNP, size kNumGenotypes
  std::vector<std::vector<double>> trait_marginals;  ///< per trait, size 2
  size_t bp_iterations = 0;                          ///< 0 for the NB baseline
  bool converged = true;
};

/// Builds the Section 5.4 factor graph from the catalog (trait priors =
/// prevalence; pairwise factors f_ji(s_i, t_j) = P(s_i | t_j) via the
/// odds-ratio RAF model), clamps the published SNPs/traits of `view` as
/// evidence, and infers the hidden variables. Unassociated SNPs fall back
/// to their background Hardy-Weinberg marginal; published variables are
/// returned as one-hot.
GenomeAttackResult RunGenomeInference(const GwasCatalog& catalog, const TargetView& view,
                                      AttackMethod method,
                                      const FactorGraph::BpOptions& options = {});

/// MAP reconstruction of the target: the attack's "name one genome" flavor
/// (the dissertation calls the method a *reconstruction attack*). Runs
/// max-product on the same graph as RunGenomeInference and returns the
/// most likely joint genotype/trait assignment; published entries pass
/// through unchanged, SNPs outside the model get the background-HWE mode.
struct GenomeReconstruction {
  std::vector<Genotype> genotypes;
  std::vector<TraitStatus> traits;
  bool converged = true;
};

GenomeReconstruction ReconstructGenome(const GwasCatalog& catalog, const TargetView& view,
                                       const FactorGraph::BpOptions& options = {});

/// Constructs the attack factor graph without running inference; exposed
/// for tests and benchmarks. `trait_variable`/`snp_variable` (size
/// num_traits / num_snps) receive variable ids, SIZE_MAX for SNPs that are
/// not in any association or LD pair (no variable is created for them).
FactorGraph BuildAttackGraph(const GwasCatalog& catalog, const TargetView& view,
                             std::vector<size_t>* trait_variable,
                             std::vector<size_t>* snp_variable);

/// One individual's marginals from a full-graph solve, by the variable maps;
/// SNPs without a variable get their background Hardy-Weinberg marginal.
GenomeAttackResult ReadAttackMarginals(const GwasCatalog& catalog, const FactorGraph::BpResult& bp,
                                       const std::vector<size_t>& trait_variable,
                                       const std::vector<size_t>& snp_variable);

/// Adds one individual's chapter-5 variables and factors (trait prevalence
/// priors, association factors f_ji = P(s|t), LD factors) to `graph`,
/// filling the variable maps, and clamps its published genotypes and trait
/// statuses as evidence. Dies when the individual or its flags do not match
/// the catalog. Shared by the single-target and the kin (pedigree) attack.
void AddIndividualToAttackGraph(FactorGraph& graph, const GwasCatalog& catalog,
                                const Individual& individual, const std::vector<bool>& snp_known,
                                const std::vector<bool>& trait_known,
                                std::vector<size_t>* trait_variable,
                                std::vector<size_t>* snp_variable);

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_INFERENCE_ATTACK_H_
