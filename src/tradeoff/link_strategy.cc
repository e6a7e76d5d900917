#include "tradeoff/link_strategy.h"

#include <algorithm>
#include <span>

#include "classify/relational.h"
#include "common/logging.h"
#include "tradeoff/utility_loss.h"

namespace ppdp::tradeoff {

namespace {

struct Candidate {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  double gain = 0.0;  ///< privacy gained by removing the link
  double cost = 0.0;  ///< structure utility lost
};

}  // namespace

LinkStrategyResult RemoveVulnerableLinks(graph::SocialGraph& g, const std::vector<bool>& known,
                                         const std::vector<classify::LabelDistribution>& estimates,
                                         double epsilon_budget, size_t max_links) {
  PPDP_CHECK(known.size() == g.num_nodes());
  PPDP_CHECK(estimates.size() == g.num_nodes());

  // The confidence the relational estimate assigns to u's true label with
  // link j dropped resumes from the partial sums of links [0, j) and adds
  // links j+1.. in adjacency order — the additions of the whole-row vote,
  // so the result is bit-identical to summing the remaining links afresh.
  const classify::LinkWeightRows weights(g, known);
  std::vector<double> prefix_mass;   // entry j: truth mass of links [0, j)
  std::vector<double> prefix_total;  // entry j: weight total of links [0, j)
  std::vector<Candidate> candidates;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (known[u]) continue;
    graph::Label truth = g.GetLabel(u);
    if (truth == graph::kUnknownLabel) continue;
    const size_t t = static_cast<size_t>(truth);
    const auto& neighbors = g.Neighbors(u);
    const std::span<const double> row = weights[u];
    const size_t degree = neighbors.size();
    auto accumulate = [&](size_t j, double& mass, double& total) {
      if (row[j] <= 0.0) return;
      total += row[j];
      mass += row[j] * estimates[neighbors[j]][t];
    };
    auto confidence = [&](double mass, double total) {
      return total <= 0.0 ? estimates[u][t] : mass / total;
    };
    prefix_mass.resize(degree);
    prefix_total.resize(degree);
    double mass = 0.0, total = 0.0;
    for (size_t j = 0; j < degree; ++j) {
      prefix_mass[j] = mass;
      prefix_total[j] = total;
      accumulate(j, mass, total);
    }
    const double with_all = confidence(mass, total);
    for (size_t j = 0; j < degree; ++j) {
      // A link of weight <= 0 never enters the vote: dropping it gains
      // nothing.
      if (row[j] <= 0.0) continue;
      mass = prefix_mass[j];
      total = prefix_total[j];
      for (size_t k = j + 1; k < degree; ++k) accumulate(k, mass, total);
      Candidate c;
      c.u = u;
      c.v = neighbors[j];
      // Vulnerable link (Definition 4.3.1): removal lowers the attacker's
      // confidence in the truth; the gain is that drop.
      c.gain = with_all - confidence(mass, total);
      if (c.gain <= 0.0) continue;
      c.cost = StructureUtilityValue(g, u, c.v);
      candidates.push_back(c);
    }
  }

  // Modular objective: cost-benefit greedy is the natural knapsack order.
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    double ra = a.gain / std::max(a.cost, 0.5);
    double rb = b.gain / std::max(b.cost, 0.5);
    if (ra != rb) return ra > rb;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });

  LinkStrategyResult result;
  for (const Candidate& c : candidates) {
    if (result.removed.size() >= max_links) break;
    if (result.structure_loss + c.cost > epsilon_budget + 1e-9) continue;
    if (!g.RemoveEdge(c.u, c.v)) continue;  // already removed via the twin direction
    result.removed.emplace_back(c.u, c.v);
    result.structure_loss += c.cost;
  }
  return result;
}

LinkStrategyResult RemoveRandomLinks(graph::SocialGraph& g, double epsilon_budget, size_t count,
                                     Rng& rng) {
  auto edges = g.Edges();
  rng.Shuffle(edges);
  LinkStrategyResult result;
  for (const auto& [u, v] : edges) {
    if (result.removed.size() >= count) break;
    double cost = StructureUtilityValue(g, u, v);
    if (result.structure_loss + cost > epsilon_budget + 1e-9) continue;
    PPDP_CHECK(g.RemoveEdge(u, v));
    result.removed.emplace_back(u, v);
    result.structure_loss += cost;
  }
  return result;
}

}  // namespace ppdp::tradeoff
