#include "genomics/pedigree.h"

#include "common/logging.h"
#include "common/math_util.h"
#include "genomics/snp_sanitizer.h"

namespace ppdp::genomics {

size_t Pedigree::AddFounder() {
  father_.push_back(-1);
  mother_.push_back(-1);
  return father_.size() - 1;
}

size_t Pedigree::AddChild(size_t father, size_t mother) {
  PPDP_CHECK(father < father_.size()) << "father index out of range";
  PPDP_CHECK(mother < father_.size()) << "mother index out of range";
  PPDP_CHECK(father != mother) << "parents must be distinct members";
  father_.push_back(static_cast<int64_t>(father));
  mother_.push_back(static_cast<int64_t>(mother));
  return father_.size() - 1;
}

bool Pedigree::IsFounder(size_t member) const {
  PPDP_CHECK(member < father_.size());
  return father_[member] < 0;
}

size_t Pedigree::Father(size_t member) const {
  PPDP_CHECK(!IsFounder(member)) << "founder has no recorded father";
  return static_cast<size_t>(father_[member]);
}

size_t Pedigree::Mother(size_t member) const {
  PPDP_CHECK(!IsFounder(member)) << "founder has no recorded mother";
  return static_cast<size_t>(mother_[member]);
}

Pedigree Pedigree::NuclearFamily(size_t children) {
  Pedigree pedigree;
  size_t father = pedigree.AddFounder();
  size_t mother = pedigree.AddFounder();
  for (size_t c = 0; c < children; ++c) pedigree.AddChild(father, mother);
  return pedigree;
}

std::vector<double> MendelianTable() {
  // P(child = gc | father = gf, mother = gm): each parent transmits a risk
  // allele with probability (risk-allele count)/2.
  std::vector<double> table(static_cast<size_t>(kNumGenotypes) * kNumGenotypes * kNumGenotypes);
  for (int gf = 0; gf < kNumGenotypes; ++gf) {
    double pf = static_cast<double>(gf) / 2.0;
    for (int gm = 0; gm < kNumGenotypes; ++gm) {
      double pm = static_cast<double>(gm) / 2.0;
      double p[kNumGenotypes] = {(1.0 - pf) * (1.0 - pm), pf * (1.0 - pm) + (1.0 - pf) * pm,
                                 pf * pm};
      for (int gc = 0; gc < kNumGenotypes; ++gc) {
        size_t index = (static_cast<size_t>(gf) * kNumGenotypes + static_cast<size_t>(gm)) *
                           kNumGenotypes +
                       static_cast<size_t>(gc);
        table[index] = p[gc];
      }
    }
  }
  return table;
}

std::vector<Individual> SampleFamily(const GwasCatalog& catalog, const Pedigree& pedigree,
                                     Rng& rng) {
  std::vector<Individual> family;
  family.reserve(pedigree.num_members());
  for (size_t m = 0; m < pedigree.num_members(); ++m) {
    if (pedigree.IsFounder(m)) {
      family.push_back(SampleIndividual(catalog, rng));
      continue;
    }
    PPDP_CHECK(pedigree.Father(m) < m && pedigree.Mother(m) < m)
        << "parents must be sampled before children";
    const Individual& father = family[pedigree.Father(m)];
    const Individual& mother = family[pedigree.Mother(m)];
    Individual child;
    child.genotypes.resize(catalog.num_snps());
    for (size_t s = 0; s < catalog.num_snps(); ++s) {
      int allele_f = rng.Bernoulli(static_cast<double>(father.genotypes[s]) / 2.0) ? 1 : 0;
      int allele_m = rng.Bernoulli(static_cast<double>(mother.genotypes[s]) / 2.0) ? 1 : 0;
      child.genotypes[s] = static_cast<Genotype>(allele_f + allele_m);
    }
    // Traits from the Bayes posterior given the child's genotype at each
    // trait's first associated SNP.
    child.traits.assign(catalog.num_traits(), kTraitAbsent);
    for (size_t t = 0; t < catalog.num_traits(); ++t) {
      double p = catalog.traits()[t].prevalence;
      const auto& assoc_ids = catalog.AssociationsOfTrait(t);
      if (!assoc_ids.empty()) {
        const SnpTraitAssociation& a = catalog.associations()[assoc_ids.front()];
        p = TraitGivenGenotype(a.control_raf, a.odds_ratio, p,
                               child.genotypes[a.snp])[1];
      }
      child.traits[t] = rng.Bernoulli(p) ? kTraitPresent : kTraitAbsent;
    }
    family.push_back(std::move(child));
  }
  return family;
}

KinView MakeKinView(const GwasCatalog& catalog, std::vector<Individual> family,
                    const std::vector<size_t>& publishing_members) {
  KinView view;
  size_t members = family.size();
  view.members = std::move(family);
  view.snp_known.assign(members, std::vector<bool>(catalog.num_snps(), false));
  view.trait_known.assign(members, std::vector<bool>(catalog.num_traits(), false));
  for (size_t m : publishing_members) {
    PPDP_CHECK(m < members) << "publishing member out of range";
    for (const auto& a : catalog.associations()) view.snp_known[m][a.snp] = true;
    for (const auto& ld : catalog.ld_pairs()) {
      view.snp_known[m][ld.a] = true;
      view.snp_known[m][ld.b] = true;
    }
  }
  return view;
}

double TruthConfidence(const GwasCatalog& catalog, const Individual& target,
                       const std::vector<std::vector<double>>& marginals) {
  const std::vector<size_t>& snps = catalog.associated_snps();
  PPDP_CHECK(!snps.empty()) << "catalog has no associations";
  PPDP_CHECK(marginals.size() == snps.size() && target.genotypes.size() == catalog.num_snps());
  double total = 0.0;
  for (size_t i = 0; i < snps.size(); ++i) {
    const Genotype truth = target.genotypes[snps[i]];
    PPDP_CHECK(truth != kUnknownGenotype) << "target genotype unknown at SNP " << snps[i];
    total += marginals[i][static_cast<size_t>(truth)];
  }
  return total / static_cast<double>(snps.size());
}

namespace {

/// The joint kin attack graph: each member's attack factors and evidence,
/// then a Mendelian factor per (child, SNP locus modeled for the child and
/// both parents). Fills the per-member variable maps.
FactorGraph BuildKinGraph(const GwasCatalog& catalog, const Pedigree& pedigree,
                          const KinView& view, std::vector<std::vector<size_t>>* trait_vars,
                          std::vector<std::vector<size_t>>* snp_vars) {
  const size_t members = pedigree.num_members();
  PPDP_CHECK(view.members.size() == members && view.snp_known.size() == members &&
             view.trait_known.size() == members)
      << "kin view does not match the pedigree's " << members << " members";
  FactorGraph graph;
  trait_vars->resize(members);
  snp_vars->resize(members);
  for (size_t m = 0; m < members; ++m) {
    AddIndividualToAttackGraph(graph, catalog, view.members[m], view.snp_known[m],
                               view.trait_known[m], &(*trait_vars)[m], &(*snp_vars)[m]);
  }
  const std::vector<double> mendel = MendelianTable();
  const std::vector<std::vector<size_t>>& vars = *snp_vars;
  for (size_t m = 0; m < members; ++m) {
    if (pedigree.IsFounder(m)) continue;
    const size_t f = pedigree.Father(m);
    const size_t mo = pedigree.Mother(m);
    for (size_t s = 0; s < catalog.num_snps(); ++s) {
      if (vars[m][s] == kNoVariable || vars[f][s] == kNoVariable ||
          vars[mo][s] == kNoVariable) {
        continue;
      }
      graph.AddFactor({vars[f][s], vars[mo][s], vars[m][s]}, mendel);
    }
  }
  return graph;
}

/// The kin pick rule: the first candidate that lowers the confidence more
/// than 1e-12 below the step's best, seeded by the current confidence.
struct KinRule {
  double cap;
  bool Done(double confidence) const { return !(confidence > cap); }
  bool Prefer(double score, double best, bool) const { return score < best - 1e-12; }
  bool Accept(double, double) const { return true; }
  double Trace(double confidence) const { return confidence; }
};

}  // namespace

GenomeAttackResult RunKinInference(const GwasCatalog& catalog, const Pedigree& pedigree,
                                   const KinView& view, size_t target_member,
                                   const FactorGraph::BpOptions& options) {
  PPDP_CHECK(target_member < pedigree.num_members());
  std::vector<std::vector<size_t>> trait_vars, snp_vars;
  const FactorGraph graph = BuildKinGraph(catalog, pedigree, view, &trait_vars, &snp_vars);
  return ReadAttackMarginals(catalog, graph.RunBeliefPropagation(options),
                             trait_vars[target_member], snp_vars[target_member]);
}

KinSanitizeResult GreedyKinSanitize(const GwasCatalog& catalog, const Pedigree& pedigree,
                                    KinView view, size_t target_member,
                                    const KinSanitizeOptions& options,
                                    KinView* sanitized_view) {
  PPDP_CHECK(target_member < pedigree.num_members());
  PPDP_CHECK(options.max_truth_confidence >= 0.0 && options.max_truth_confidence <= 1.0)
      << "confidence cap must lie in [0, 1]";

  // Built once, as in GreedySanitize; only the target's associated SNPs are
  // read. An entry outside every association and LD pair has no variable
  // and stays a candidate that changes nothing.
  std::vector<std::vector<size_t>> trait_vars, snp_vars;
  FactorGraph graph = BuildKinGraph(catalog, pedigree, view, &trait_vars, &snp_vars);
  std::vector<size_t> target_variables;
  for (size_t s : catalog.associated_snps()) target_variables.push_back(snp_vars[target_member][s]);

  // Candidate pool: every published (member, SNP) entry of the relatives.
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
  result.released = pool.size();
  RunBpGreedy(
      &graph, options.bp, std::move(target_variables), std::move(pool), options.max_sanitized,
      [&](const KinSanitizedEntry& e) { return snp_vars[e.member][e.snp]; },
      [&](const std::vector<std::vector<double>>& marginals) {
        return TruthConfidence(catalog, view.members[target_member], marginals);
      },
      KinRule{options.max_truth_confidence}, &result.sanitized, &result.confidence_trace);
  result.satisfied = result.confidence_trace.back() <= options.max_truth_confidence + 1e-12;
  result.released -= result.sanitized.size();
  for (const KinSanitizedEntry& e : result.sanitized) view.snp_known[e.member][e.snp] = false;
  if (sanitized_view != nullptr) *sanitized_view = std::move(view);
  return result;
}

}  // namespace ppdp::genomics
