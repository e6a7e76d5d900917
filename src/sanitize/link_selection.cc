#include "sanitize/link_selection.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <unordered_set>
#include <utility>

#include "classify/relational.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "obs/trace.h"

namespace ppdp::sanitize {

namespace {

/// Unit roundoff of IEEE double (round to nearest).
constexpr double kUnitRoundoff = 0x1p-53;
/// A link whose removal leaves at most this share of the vote's weight is
/// scored exactly up front: subtracting it cancels most of the total, and
/// the bound's (1 + total / rest) factor would grow without limit.
constexpr double kMinRestShare = 1.0 / 16;
/// Estimate entries above this (or negative, or NaN) void the bound; every
/// link is then scored exactly. Keeps all bound arithmetic finite.
constexpr double kMaxBoundedEstimate = 0x1p100;

/// The ranking order: ascending variance, ties broken by (u, v). A strict
/// total order, since each (u, v) pair is scored at most once.
bool RankedBefore(const ScoredLink& a, const ScoredLink& b) {
  if (a.variance != b.variance) return a.variance < b.variance;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// Scores the links out of hidden nodes for one graph state.
///
/// Exact() is the link's score (Def 3.5.1 over the Eq. 4.3 vote): it sums
/// the remaining terms in adjacency order, as the whole-row vote does, so
/// the ranking is bit-identical to recomputing each vote from scratch.
/// ForEachKey() gives every link, in O(L), a key that is at most its exact
/// score: sum u's whole vote once, subtract the dropped term, and take off
/// a slack covering the rounding of both this form and Exact() (DESIGN.md,
/// "Link sanitizer: cost and exactness").
class LinkScorer {
 public:
  LinkScorer(const graph::SocialGraph& g, const std::vector<bool>& known,
             const std::vector<classify::LabelDistribution>& estimates)
      : g_(g),
        known_(known),
        estimates_(estimates, static_cast<size_t>(g.num_labels())),
        weights_(g, known),
        combined_(static_cast<size_t>(g.num_labels())) {
    PPDP_CHECK(known.size() == g.num_nodes());
    PPDP_CHECK(estimates.size() == g.num_nodes());
    double max_estimate = 0.0;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      estimates_.MarkOneHot(u);
      for (double p : estimates_[u]) {
        if (!(p >= 0.0 && p <= kMaxBoundedEstimate)) bounded_ = false;
        max_estimate = std::max(max_estimate, p);
      }
    }
    slack_scale_ = 8.0 * kUnitRoundoff * max_estimate * max_estimate;
  }

  /// Every estimate is finite and in [0, 2^100], so every key and score
  /// is a finite number.
  bool bounded() const { return bounded_; }

  /// The variance of u's vote without its link j: terms [0, j), then
  /// (j, deg), in adjacency order; u's own estimate when no weight remains.
  double Exact(graph::NodeId u, size_t j) {
    combined_.assign(combined_.size(), 0.0);
    double total = 0.0;
    AddVotes(u, 0, j, combined_, total);
    AddVotes(u, j + 1, g_.Degree(u), combined_, total);
    return VoteVariance(u, total);
  }

  /// Calls visit(link, j, exact) for every link out of a hidden node, in
  /// node-then-adjacency order; link.variance is the link's key, its exact
  /// score when `exact`.
  template <typename Visit>
  void ForEachKey(Visit visit) {
    const size_t labels = combined_.size();
    classify::LabelDistribution full(labels);
    for (graph::NodeId u = 0; u < g_.num_nodes(); ++u) {
      if (known_[u]) continue;  // only hidden-label users need protection
      const auto& neighbors = g_.Neighbors(u);
      const std::span<const double> row = weights_[u];
      const size_t degree = neighbors.size();
      full.assign(labels, 0.0);
      double total = 0.0;
      AddVotes(u, 0, degree, full, total);
      combined_ = full;
      const double full_variance = VoteVariance(u, total);
      const double slack_per_ratio =
          slack_scale_ * static_cast<double>(degree + labels + 4);
      for (size_t j = 0; j < degree; ++j) {
        const graph::NodeId v = neighbors[j];
        const double w = row[j];
        if (w <= 0.0) {  // never in the vote: dropping it leaves the full vote
          visit(ScoredLink{u, v, full_variance}, j, true);
          continue;
        }
        const double rest = total - w;
        if (!bounded_ || rest <= total * kMinRestShare) {
          visit(ScoredLink{u, v, Exact(u, j)}, j, true);
          continue;
        }
        const std::span<const double> dropped = estimates_[v];
        for (size_t y = 0; y < labels; ++y) combined_[y] = (full[y] - w * dropped[y]) / rest;
        const double slack = slack_per_ratio * (1.0 + total / rest);
        visit(ScoredLink{u, v, Variance(combined_) - slack}, j, false);
      }
    }
  }

 private:
  /// Adds u's links [begin, end) of weight > 0 to its vote, in adjacency
  /// order: combined[y] += W_{u,v} · estimate[v][y], total += W_{u,v}. A
  /// split sum repeats the additions of the whole-row vote.
  void AddVotes(graph::NodeId u, size_t begin, size_t end, classify::LabelDistribution& combined,
                double& total) const {
    const auto& neighbors = g_.Neighbors(u);
    const std::span<const double> row = weights_[u];
    for (size_t j = begin; j < end; ++j) {
      const double w = row[j];
      if (w <= 0.0) continue;
      total += w;
      const graph::NodeId v = neighbors[j];
      classify::AddVote(estimates_[v], estimates_.OneHotLabel(v), w, combined);
    }
  }

  /// Normalizes combined_ by `total` and returns its variance, or the
  /// variance of u's own estimate when no weight remains
  /// (classify::VoteLinks::Vote's fallback).
  double VoteVariance(graph::NodeId u, double total) {
    if (total <= 0.0) {
      const std::span<const double> own = estimates_[u];
      combined_.assign(own.begin(), own.end());
      return Variance(combined_);
    }
    for (double& p : combined_) p /= total;
    return Variance(combined_);
  }

  const graph::SocialGraph& g_;
  const std::vector<bool>& known_;
  /// The estimates, each row marked one-hot when it is.
  classify::LabelRows estimates_;
  const classify::LinkWeightRows weights_;
  classify::LabelDistribution combined_;  ///< reused vote buffer
  bool bounded_ = true;       ///< estimates admit the bound
  double slack_scale_ = 0.0;  ///< 8·ū·M², M the largest estimate entry
};

}  // namespace

std::vector<ScoredLink> RankIndistinguishableLinks(
    const graph::SocialGraph& g, const std::vector<bool>& known,
    const std::vector<classify::LabelDistribution>& estimates) {
  obs::TraceSpan span(PPDP_SPAN_SITE("sanitize.rank_links"));
  LinkScorer scorer(g, known, estimates);
  std::vector<ScoredLink> scored;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (known[u]) continue;
    const auto& neighbors = g.Neighbors(u);
    for (size_t j = 0; j < neighbors.size(); ++j) {
      scored.push_back(ScoredLink{u, neighbors[j], scorer.Exact(u, j)});
    }
  }
  std::sort(scored.begin(), scored.end(), RankedBefore);
  return scored;
}

std::vector<ScoredLink> LinkScoreLowerBounds(
    const graph::SocialGraph& g, const std::vector<bool>& known,
    const std::vector<classify::LabelDistribution>& estimates) {
  LinkScorer scorer(g, known, estimates);
  std::vector<ScoredLink> keys;
  scorer.ForEachKey([&](const ScoredLink& link, size_t, bool) { keys.push_back(link); });
  return keys;
}

size_t RemoveIndistinguishableLinks(graph::SocialGraph& g, const std::vector<bool>& known,
                                    const std::vector<classify::LabelDistribution>& estimates,
                                    size_t count) {
  obs::TraceSpan span(PPDP_SPAN_SITE("sanitize.remove_links"));
  // Every link enters a heap on the ranking order under its key, a lower
  // bound on its score. A bound reaching the top is replaced by the exact
  // score and pushed back; an exact entry on top scores no higher than any
  // other link's key, hence than any other link, so it is the next link of
  // the full ranking.
  //
  // Only a window of low keys is heaped at first: the links whose key is
  // below a threshold τ, the K-th smallest key. Every link outside
  // has exact score >= key >= τ, so an exact top scoring below τ still
  // precedes all of them. A top that does not (or an empty window) merges
  // the outside links into the heap, and the walk goes on over every link.
  struct Candidate {
    ScoredLink link;
    uint32_t j = 0;  ///< position of link.v in u's adjacency
    bool exact = false;
  };
  LinkScorer scorer(g, known, estimates);
  size_t links = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) links += known[u] ? 0 : g.Degree(u);
  std::vector<Candidate> heap;
  heap.reserve(links);
  scorer.ForEachKey([&](const ScoredLink& link, size_t j, bool exact) {
    heap.push_back(Candidate{link, static_cast<uint32_t>(j), exact});
  });
  // K leaves room for the `count` picks, the twin nominations they skip
  // and the bounds that rescore above τ. The links outside the window wait
  // at the front of the vector, and the heap is heap[first, end). Unbounded
  // estimates may give NaN keys, which have no K-th smallest: those calls
  // heap every link.
  const size_t k = 4 * std::min(count, links) + 64;
  double threshold = std::numeric_limits<double>::infinity();
  size_t first = 0;
  if (links > 2 * k && scorer.bounded()) {
    std::vector<double> keys(links);
    for (size_t i = 0; i < links; ++i) keys[i] = heap[i].link.variance;
    std::nth_element(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(k - 1), keys.end());
    threshold = keys[k - 1];
    first = static_cast<size_t>(
        std::partition(heap.begin(), heap.end(),
                       [&](const Candidate& c) { return !(c.link.variance < threshold); }) -
        heap.begin());
  }
  auto ranked_after = [](const Candidate& a, const Candidate& b) {
    return RankedBefore(b.link, a.link);
  };
  std::make_heap(heap.begin() + first, heap.end(), ranked_after);
  // Exact scores read the adjacency as it was on entry, so the chosen
  // edges leave the graph only once the walk is done.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> chosen;
  std::unordered_set<uint64_t> chosen_edges;
  while (chosen.size() < count) {
    if (first > 0 && (first == heap.size() ||
                      (heap[first].exact && !(heap[first].link.variance < threshold)))) {
      first = 0;  // merge: heap every link
      std::make_heap(heap.begin(), heap.end(), ranked_after);
      continue;
    }
    if (first == heap.size()) break;
    std::pop_heap(heap.begin() + first, heap.end(), ranked_after);
    Candidate& top = heap.back();
    if (!top.exact) {
      top.link.variance = scorer.Exact(top.link.u, top.j);
      top.exact = true;
      std::push_heap(heap.begin() + first, heap.end(), ranked_after);
      continue;
    }
    const auto [lo, hi] = std::minmax(top.link.u, top.link.v);
    // The second nomination of an edge (both endpoints hidden) is skipped.
    if (chosen_edges.insert(uint64_t{lo} << 32 | hi).second) {
      chosen.emplace_back(top.link.u, top.link.v);
    }
    heap.pop_back();
  }
  for (const auto& [u, v] : chosen) PPDP_CHECK(g.RemoveEdge(u, v));
  return chosen.size();
}

}  // namespace ppdp::sanitize
