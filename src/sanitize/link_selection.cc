#include "sanitize/link_selection.h"

#include <algorithm>
#include <span>

#include "classify/relational.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "obs/trace.h"

namespace ppdp::sanitize {

namespace {

/// The ranking order: ascending variance, ties broken by (u, v). A strict
/// total order, since each (u, v) pair is scored at most once.
bool RankedBefore(const ScoredLink& a, const ScoredLink& b) {
  if (a.variance != b.variance) return a.variance < b.variance;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// Variance of the normalized vote, or of u's own estimate when every
/// remaining weight vanished (classify::RelationalPredict's fallback).
/// Normalizes `combined` in place.
double VoteVariance(classify::LabelDistribution& combined, double total, double fallback) {
  if (total <= 0.0) return fallback;
  for (double& p : combined) p /= total;
  return Variance(combined);
}

/// Scores every (hidden node, neighbor) link in node-then-adjacency order.
///
/// Dropping link j from u's vote (Eq. 4.3) must sum the remaining terms in
/// adjacency order to stay bit-identical with the whole-row vote, so the
/// scorer keeps the partial sums of terms [0, j) and, per excluded link,
/// resumes from prefix j and adds terms j+1.. — the same additions on the
/// same doubles, at half the pair work of recomputing every sum. A link of
/// weight <= 0 never enters the vote, so dropping it leaves the full vote.
std::vector<ScoredLink> ScoreLinks(const graph::SocialGraph& g, const std::vector<bool>& known,
                                   const std::vector<classify::LabelDistribution>& estimates) {
  PPDP_CHECK(known.size() == g.num_nodes());
  PPDP_CHECK(estimates.size() == g.num_nodes());
  const classify::LinkWeightRows weights(g, known);
  const size_t labels = static_cast<size_t>(g.num_labels());
  std::vector<ScoredLink> scored;
  std::vector<double> prefix;        // row j: vote of neighbors [0, j)
  std::vector<double> prefix_total;  // entry j: weight total of neighbors [0, j)
  classify::LabelDistribution combined(labels);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (known[u]) continue;  // only hidden-label users need protection
    const auto& neighbors = g.Neighbors(u);
    const std::span<const double> row = weights[u];
    const size_t degree = neighbors.size();
    prefix.resize(degree * labels);
    prefix_total.resize(degree);
    combined.assign(labels, 0.0);
    double total = 0.0;
    for (size_t j = 0; j < degree; ++j) {
      std::copy(combined.begin(), combined.end(), prefix.begin() + j * labels);
      prefix_total[j] = total;
      classify::AccumulateVote(neighbors, row, j, j + 1, estimates, combined, total);
    }
    const double fallback = Variance(estimates[u]);
    const double full = VoteVariance(combined, total, fallback);
    for (size_t j = 0; j < degree; ++j) {
      double variance = full;
      if (row[j] > 0.0) {
        combined.assign(prefix.begin() + j * labels, prefix.begin() + (j + 1) * labels);
        total = prefix_total[j];
        classify::AccumulateVote(neighbors, row, j + 1, degree, estimates, combined, total);
        variance = VoteVariance(combined, total, fallback);
      }
      scored.push_back(ScoredLink{u, neighbors[j], variance});
    }
  }
  return scored;
}

}  // namespace

std::vector<ScoredLink> RankIndistinguishableLinks(
    const graph::SocialGraph& g, const std::vector<bool>& known,
    const std::vector<classify::LabelDistribution>& estimates) {
  obs::TraceSpan span("sanitize.rank_links");
  std::vector<ScoredLink> scored = ScoreLinks(g, known, estimates);
  std::sort(scored.begin(), scored.end(), RankedBefore);
  return scored;
}

size_t RemoveIndistinguishableLinks(graph::SocialGraph& g, const std::vector<bool>& known,
                                    const std::vector<classify::LabelDistribution>& estimates,
                                    size_t count) {
  obs::TraceSpan span("sanitize.remove_links");
  // Links leave a heap in ranking order, so only the prefix the walk
  // consumes gets ordered instead of the whole ranking.
  std::vector<ScoredLink> heap = ScoreLinks(g, known, estimates);
  auto ranked_after = [](const ScoredLink& a, const ScoredLink& b) { return RankedBefore(b, a); };
  std::make_heap(heap.begin(), heap.end(), ranked_after);
  size_t removed = 0;
  for (auto end = heap.end(); removed < count && end != heap.begin(); --end) {
    std::pop_heap(heap.begin(), end, ranked_after);
    const ScoredLink& link = *(end - 1);
    if (g.RemoveEdge(link.u, link.v)) ++removed;
  }
  return removed;
}

}  // namespace ppdp::sanitize
