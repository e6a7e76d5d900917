#include "classify/relational.h"

#include "common/logging.h"
#include "common/math_util.h"
#include "exec/parallel.h"

namespace ppdp::classify {

LinkWeightRows::LinkWeightRows(const SocialGraph& g, const std::vector<bool>& known,
                               int threads) {
  PPDP_CHECK(known.size() == g.num_nodes());
  offsets_.assign(g.num_nodes() + 1, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    offsets_[u + 1] = offsets_[u] + (known[u] ? 0 : g.Degree(u));
  }
  weights_.resize(offsets_.back());
  // Each row is written by exactly one task, so the rows are
  // thread-count-invariant.
  exec::ParallelFor(
      0, g.num_nodes(), /*grain=*/64,
      [&](size_t u) {
        if (known[u]) return;
        // SocialGraph::LinkWeight for every neighbour, with u's published
        // count taken once: the same integer ratio, so the same doubles.
        const std::span<const graph::AttributeValue> own = g.Attributes(static_cast<NodeId>(u));
        size_t published = 0;
        for (graph::AttributeValue a : own) published += a != graph::kMissingAttribute;
        if (published == 0) return;  // weights_ starts zeroed
        const auto& neighbors = g.Neighbors(static_cast<NodeId>(u));
        double* row = weights_.data() + offsets_[u];
        for (size_t j = 0; j < neighbors.size(); ++j) {
          const std::span<const graph::AttributeValue> other = g.Attributes(neighbors[j]);
          size_t shared = 0;
          for (size_t c = 0; c < own.size(); ++c) {
            shared += own[c] != graph::kMissingAttribute && own[c] == other[c];
          }
          row[j] = static_cast<double>(shared) / static_cast<double>(published);
        }
      },
      exec::ExecConfig{threads});
}

void AccumulateVote(const std::vector<NodeId>& neighbors, std::span<const double> weights,
                    size_t begin, size_t end, const std::vector<LabelDistribution>& current,
                    LabelDistribution& combined, double& total) {
  const size_t labels = combined.size();
  for (size_t j = begin; j < end; ++j) {
    const double w = weights[j];
    if (w <= 0.0) continue;
    total += w;
    const LabelDistribution& neighbor = current[neighbors[j]];
    for (size_t y = 0; y < labels; ++y) combined[y] += w * neighbor[y];
  }
}

void RelationalPredictInto(const SocialGraph& g, NodeId u, std::span<const double> weights,
                           const std::vector<LabelDistribution>& current, LabelDistribution& out) {
  PPDP_CHECK(current.size() == g.num_nodes());
  const auto& neighbors = g.Neighbors(u);
  PPDP_CHECK(weights.size() == neighbors.size());
  out.assign(static_cast<size_t>(g.num_labels()), 0.0);
  double weight_total = 0.0;
  AccumulateVote(neighbors, weights, 0, neighbors.size(), current, out, weight_total);
  if (weight_total <= 0.0) {
    out = current[u];
    return;
  }
  for (double& p : out) p /= weight_total;
}

LabelDistribution RelationalPredict(const SocialGraph& g, NodeId u,
                                    std::span<const double> weights,
                                    const std::vector<LabelDistribution>& current) {
  LabelDistribution out;
  RelationalPredictInto(g, u, weights, current, out);
  return out;
}

LabelDistribution RelationalPredict(const SocialGraph& g, NodeId u,
                                    const std::vector<LabelDistribution>& current) {
  const auto& neighbors = g.Neighbors(u);
  std::vector<double> weights(neighbors.size());
  for (size_t j = 0; j < neighbors.size(); ++j) weights[j] = g.LinkWeight(u, neighbors[j]);
  return RelationalPredict(g, u, weights, current);
}

std::vector<LabelDistribution> BootstrapDistributions(const SocialGraph& g,
                                                      const std::vector<bool>& known,
                                                      const AttributeClassifier& local,
                                                      int threads) {
  PPDP_CHECK(known.size() == g.num_nodes());
  const size_t labels = static_cast<size_t>(g.num_labels());
  std::vector<LabelDistribution> dists(g.num_nodes());
  // Pure per-node fan-out: each slot is written exactly once from a const
  // classifier, so the bootstrap is thread-count-invariant.
  exec::ParallelFor(
      0, g.num_nodes(), /*grain=*/64,
      [&](size_t u) {
        if (known[u]) {
          graph::Label y = g.GetLabel(static_cast<NodeId>(u));
          PPDP_CHECK(y != graph::kUnknownLabel) << "known node " << u << " has no label";
          dists[u].assign(labels, 0.0);
          dists[u][static_cast<size_t>(y)] = 1.0;
        } else {
          dists[u] = local.Predict(g, static_cast<NodeId>(u));
        }
      },
      exec::ExecConfig{threads});
  return dists;
}

std::vector<LabelDistribution> LinkOnlyInference(const SocialGraph& g,
                                                 const std::vector<bool>& known,
                                                 const AttributeClassifier& local,
                                                 size_t passes) {
  std::vector<LabelDistribution> dists = BootstrapDistributions(g, known, local);
  const LinkWeightRows weights(g, known);
  for (size_t pass = 0; pass < passes; ++pass) {
    std::vector<LabelDistribution> next = dists;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (known[u]) continue;
      next[u] = RelationalPredict(g, u, weights[u], dists);
    }
    dists = std::move(next);
  }
  return dists;
}

}  // namespace ppdp::classify
