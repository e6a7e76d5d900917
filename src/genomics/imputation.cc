#include "genomics/imputation.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace ppdp::genomics {

namespace {

/// Expected same-genotype rate of two independent HWE draws at RAFs a, b.
double IndependentAgreement(double raf_a, double raf_b) {
  std::vector<double> pa = HardyWeinberg(raf_a);
  std::vector<double> pb = HardyWeinberg(raf_b);
  double agreement = 0.0;
  for (int g = 0; g < kNumGenotypes; ++g) {
    agreement += pa[static_cast<size_t>(g)] * pb[static_cast<size_t>(g)];
  }
  return agreement;
}

/// Builds the chain factor graph for one individual; returns variable ids.
std::vector<size_t> BuildChainGraph(const Individual& person, const LdChain& chain,
                                    FactorGraph& graph) {
  const size_t n = chain.num_loci();
  std::vector<size_t> vars(n);
  for (size_t i = 0; i < n; ++i) {
    vars[i] = graph.AddVariable(kNumGenotypes);
  }
  // Locus-0 prior; transitions P(g_{i+1} | g_i) for the rest.
  graph.AddFactor({vars[0]}, HardyWeinberg(chain.raf[0]));
  for (size_t i = 0; i + 1 < n; ++i) {
    std::vector<double> hw = HardyWeinberg(chain.raf[i + 1]);
    std::vector<double> table(static_cast<size_t>(kNumGenotypes) * kNumGenotypes);
    for (int ga = 0; ga < kNumGenotypes; ++ga) {
      for (int gb = 0; gb < kNumGenotypes; ++gb) {
        double p = (1.0 - chain.correlation[i]) * hw[static_cast<size_t>(gb)];
        if (ga == gb) p += chain.correlation[i];
        table[static_cast<size_t>(ga) * kNumGenotypes + static_cast<size_t>(gb)] = p;
      }
    }
    graph.AddFactor({vars[i], vars[i + 1]}, std::move(table));
  }
  for (size_t i = 0; i < n; ++i) {
    if (person.genotypes[i] != kUnknownGenotype) {
      graph.SetEvidence(vars[i], static_cast<size_t>(person.genotypes[i]));
    }
  }
  return vars;
}

}  // namespace

Result<LdChain> EstimateLdChain(const CaseControlPanel& reference) {
  if (reference.individuals.empty()) return Status::InvalidArgument("empty reference panel");
  const size_t n = reference.individuals[0].genotypes.size();
  if (n == 0) return Status::InvalidArgument("reference has no loci");

  LdChain chain;
  chain.raf.assign(n, 0.25);
  chain.correlation.assign(n > 0 ? n - 1 : 0, 0.0);

  for (size_t i = 0; i < n; ++i) {
    double alleles = 0.0, people = 0.0;
    for (const Individual& person : reference.individuals) {
      Genotype g = person.genotypes[i];
      if (g == kUnknownGenotype) continue;
      alleles += static_cast<double>(g);
      people += 1.0;
    }
    if (people > 0.0) {
      chain.raf[i] = std::clamp(alleles / (2.0 * people), 0.01, 0.99);
    }
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    double same = 0.0, rows = 0.0;
    for (const Individual& person : reference.individuals) {
      Genotype a = person.genotypes[i];
      Genotype b = person.genotypes[i + 1];
      if (a == kUnknownGenotype || b == kUnknownGenotype) continue;
      rows += 1.0;
      if (a == b) same += 1.0;
    }
    if (rows == 0.0) continue;
    // Invert s = c + (1 − c)·base for the chain model's agreement rate.
    double base = IndependentAgreement(chain.raf[i], chain.raf[i + 1]);
    double s = same / rows;
    if (base >= 1.0 - 1e-9) continue;
    chain.correlation[i] = std::clamp((s - base) / (1.0 - base), 0.0, 1.0);
  }
  return chain;
}

std::vector<std::vector<double>> ImputeGenotypes(const Individual& person,
                                                 const LdChain& chain) {
  PPDP_CHECK(person.genotypes.size() == chain.num_loci())
      << "individual covers " << person.genotypes.size() << " loci, chain "
      << chain.num_loci();
  FactorGraph graph;
  std::vector<size_t> vars = BuildChainGraph(person, chain, graph);
  FactorGraph::BpOptions options;
  options.max_iterations = 2 * chain.num_loci() + 10;  // chains need one sweep per hop
  return graph.RunBeliefPropagation(options, vars).marginals;
}

Individual ImputeFill(const Individual& person, const LdChain& chain) {
  std::vector<std::vector<double>> marginals = ImputeGenotypes(person, chain);
  Individual filled = person;
  for (size_t i = 0; i < chain.num_loci(); ++i) {
    if (filled.genotypes[i] == kUnknownGenotype) {
      filled.genotypes[i] = static_cast<Genotype>(ArgMax(marginals[i]));
    }
  }
  return filled;
}

double MaskedImputationAccuracy(const CaseControlPanel& panel, double mask_fraction,
                                uint64_t seed, double* baseline_accuracy) {
  PPDP_CHECK(!panel.individuals.empty());
  PPDP_CHECK(mask_fraction > 0.0 && mask_fraction < 1.0);
  LdChain chain = EstimateLdChain(panel).value();
  Rng rng(seed);

  size_t recovered = 0, baseline_recovered = 0, masked_total = 0;
  for (const Individual& person : panel.individuals) {
    Individual masked = person;
    std::vector<size_t> hidden;
    for (size_t i = 0; i < masked.genotypes.size(); ++i) {
      if (masked.genotypes[i] != kUnknownGenotype && rng.Bernoulli(mask_fraction)) {
        masked.genotypes[i] = kUnknownGenotype;
        hidden.push_back(i);
      }
    }
    if (hidden.empty()) continue;
    Individual filled = ImputeFill(masked, chain);
    for (size_t i : hidden) {
      ++masked_total;
      if (filled.genotypes[i] == person.genotypes[i]) ++recovered;
      Genotype hwe_mode = static_cast<Genotype>(ArgMax(HardyWeinberg(chain.raf[i])));
      if (hwe_mode == person.genotypes[i]) ++baseline_recovered;
    }
  }
  if (masked_total == 0) return 0.0;
  if (baseline_accuracy != nullptr) {
    *baseline_accuracy =
        static_cast<double>(baseline_recovered) / static_cast<double>(masked_total);
  }
  return static_cast<double>(recovered) / static_cast<double>(masked_total);
}

}  // namespace ppdp::genomics
