#ifndef PPDP_SANITIZE_LINK_SELECTION_H_
#define PPDP_SANITIZE_LINK_SELECTION_H_

#include <cstddef>
#include <vector>

#include "classify/classifier.h"
#include "graph/social_graph.h"

namespace ppdp::sanitize {

/// An edge scored by how indistinguishable its removal leaves the incident
/// node's predicted label distribution (Definition 3.5.1): lower variance
/// across class probabilities after removing the link means the link is more
/// worth removing.
struct ScoredLink {
  graph::NodeId u = 0;        ///< the protected endpoint
  graph::NodeId v = 0;        ///< the neighbor the link leads to
  double variance = 0.0;      ///< Var{P(y_u^1), ..., P(y_u^k)} without the link
};

/// Scores every (hidden-label node, neighbor) link by the variance of the
/// node's relational prediction with the link removed, given the current
/// per-node label-distribution estimates. Result sorted ascending by
/// variance (most indistinguishable first); each undirected edge may appear
/// once per hidden endpoint.
std::vector<ScoredLink> RankIndistinguishableLinks(
    const graph::SocialGraph& g, const std::vector<bool>& known,
    const std::vector<classify::LabelDistribution>& estimates);

/// Removes up to `count` most-indistinguishable links from `g` (skipping
/// links already gone because both endpoints nominated them). Returns the
/// number actually removed. The removed edges are exactly the first ones
/// of RankIndistinguishableLinks' order, but only links that surface near
/// the top of the ranking get their exact score.
size_t RemoveIndistinguishableLinks(graph::SocialGraph& g, const std::vector<bool>& known,
                                    const std::vector<classify::LabelDistribution>& estimates,
                                    size_t count);

/// The keys RemoveIndistinguishableLinks ranks links by before it computes
/// their exact scores, one per (hidden node, neighbor) link in
/// node-then-adjacency order. Each `variance` is at most the link's score
/// in RankIndistinguishableLinks, and equal to it for links scored exactly
/// up front. Exposed so tests can check the bound.
std::vector<ScoredLink> LinkScoreLowerBounds(
    const graph::SocialGraph& g, const std::vector<bool>& known,
    const std::vector<classify::LabelDistribution>& estimates);

}  // namespace ppdp::sanitize

#endif  // PPDP_SANITIZE_LINK_SELECTION_H_
