#include "classify/relational.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "exec/parallel.h"

namespace ppdp::classify {

namespace {
/// An attribute value no node holds: stored values are in [0, num_values)
/// or kMissingAttribute.
constexpr graph::AttributeValue kNeverHeld = graph::kMissingAttribute - 1;
}  // namespace

LinkWeightRows::LinkWeightRows(const SocialGraph& g, const std::vector<bool>& known,
                               int threads) {
  PPDP_CHECK(known.size() == g.num_nodes());
  offsets_.assign(g.num_nodes() + 1, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    offsets_[u + 1] = offsets_[u] + (known[u] ? 0 : g.Degree(u));
  }
  weights_.resize(offsets_.back());
  // SocialGraph::LinkWeight for every link: the same integer ratio
  // shared / published, so the same doubles. Each ratio a row can give is
  // divided once, into ratios[published * (C + 1) + shared].
  const size_t categories = g.num_categories();
  std::vector<double> ratios((categories + 1) * (categories + 1));
  for (size_t published = 1; published <= categories; ++published) {
    for (size_t shared = 0; shared <= published; ++shared) {
      ratios[published * (categories + 1) + shared] =
          static_cast<double>(shared) / static_cast<double>(published);
    }
  }
  // The rows are read from the attribute block by offset. In u's own row
  // a missing value becomes one no row holds, so a shared category is one
  // equality.
  const std::span<const graph::AttributeValue> block = g.AttributeBlock();
  std::vector<graph::AttributeValue> probes(block.begin(), block.end());
  for (graph::AttributeValue& a : probes) {
    if (a == graph::kMissingAttribute) a = kNeverHeld;
  }
  // Each row is written by exactly one task, so the rows are
  // thread-count-invariant.
  exec::ParallelFor(
      0, g.num_nodes(), /*grain=*/64,
      [&](size_t u) {
        if (known[u]) return;
        const graph::AttributeValue* own = probes.data() + u * categories;
        size_t published = 0;
        for (size_t c = 0; c < categories; ++c) published += own[c] != kNeverHeld;
        if (published == 0) return;  // weights_ starts zeroed
        const double* ratio = ratios.data() + published * (categories + 1);
        const auto& neighbors = g.Neighbors(static_cast<NodeId>(u));
        double* row = weights_.data() + offsets_[u];
        for (size_t j = 0; j < neighbors.size(); ++j) {
          const graph::AttributeValue* other = block.data() + size_t{neighbors[j]} * categories;
          size_t shared = 0;
          for (size_t c = 0; c < categories; ++c) shared += own[c] == other[c];
          row[j] = ratio[shared];
        }
      },
      exec::ExecConfig{threads});
}

LabelRows::LabelRows(const std::vector<LabelDistribution>& dists, size_t labels)
    : labels_(labels), hot_(dists.size(), kNotOneHot) {
  values_.reserve(dists.size() * labels);
  for (const LabelDistribution& dist : dists) {
    PPDP_CHECK(dist.size() == labels) << "distribution of width " << dist.size() << ", want "
                                      << labels;
    values_.insert(values_.end(), dist.begin(), dist.end());
  }
}

void LabelRows::MarkOneHot(NodeId u) {
  const std::span<const double> row = (*this)[u];
  int32_t hot = kNotOneHot;
  for (size_t y = 0; y < row.size(); ++y) {
    if (row[y] == 1.0 && hot == kNotOneHot) {
      hot = static_cast<int32_t>(y);
    } else if (row[y] != 0.0) {  // a second 1.0, anything else non-zero, or NaN
      hot = kNotOneHot;
      break;
    }
  }
  hot_[u] = hot;
}

std::vector<LabelDistribution> LabelRows::ToDistributions() const {
  std::vector<LabelDistribution> dists;
  dists.reserve(num_rows());
  for (NodeId u = 0; u < num_rows(); ++u) {
    const std::span<const double> row = (*this)[u];
    dists.emplace_back(row.begin(), row.end());
  }
  return dists;
}

VoteLinks::VoteLinks(const SocialGraph& g, const std::vector<bool>& known, int threads) {
  const LinkWeightRows rows(g, known, threads);
  offsets_.assign(g.num_nodes() + 1, 0);
  totals_.assign(g.num_nodes(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::span<const double> row = rows[u];
    const auto& neighbors = g.Neighbors(u);
    double total = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j] <= 0.0) continue;
      targets_.push_back(neighbors[j]);
      weights_.push_back(row[j]);
      total += row[j];
    }
    offsets_[u + 1] = targets_.size();
    totals_[u] = total;
  }
}

void VoteLinks::Vote(NodeId u, const LabelRows& current, std::span<double> out) const {
  const double total = totals_[u];
  if (total <= 0.0) {
    const std::span<const double> own = current[u];
    std::copy(own.begin(), own.end(), out.begin());
    return;
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (size_t k = offsets_[u]; k < offsets_[u + 1]; ++k) {
    const NodeId v = targets_[k];
    AddVote(current[v], current.OneHotLabel(v), weights_[k], out);
  }
  for (double& p : out) p /= total;
}

LabelDistribution RelationalPredict(const SocialGraph& g, NodeId u,
                                    std::span<const double> weights,
                                    const std::vector<LabelDistribution>& current) {
  PPDP_CHECK(current.size() == g.num_nodes());
  const auto& neighbors = g.Neighbors(u);
  PPDP_CHECK(weights.size() == neighbors.size());
  LabelDistribution out(static_cast<size_t>(g.num_labels()), 0.0);
  double total = 0.0;
  for (size_t j = 0; j < neighbors.size(); ++j) {
    if (weights[j] <= 0.0) continue;
    total += weights[j];
    AddVote(current[neighbors[j]], LabelRows::kNotOneHot, weights[j], out);
  }
  if (total <= 0.0) return current[u];
  for (double& p : out) p /= total;
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
  LabelRows dists(BootstrapDistributions(g, known, local), static_cast<size_t>(g.num_labels()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (known[u]) dists.MarkOneHot(u);
  }
  const VoteLinks links(g, known);
  // Known rows never change, so each pass rewrites only the hidden rows of
  // the other buffer, then the two swap.
  LabelRows next = dists;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (!known[u]) links.Vote(u, dists, next.MutableRow(u));
    }
    std::swap(dists, next);
  }
  return dists.ToDistributions();
}

}  // namespace ppdp::classify
