#ifndef PPDP_CLASSIFY_RELATIONAL_H_
#define PPDP_CLASSIFY_RELATIONAL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "classify/classifier.h"

namespace ppdp::classify {

/// The link weights W_{u,v} (Eq. 4.2) of every link out of the hidden-label
/// nodes, computed once for one graph state. Row u holds
/// g.LinkWeight(u, g.Neighbors(u)[j]) at index j, aligned with adjacency
/// order; known nodes get empty rows. Any edge or attribute change to `g`
/// invalidates the rows. `threads` follows the exec convention; every
/// setting yields the same rows.
class LinkWeightRows {
 public:
  LinkWeightRows() = default;  ///< no rows; assign before use
  LinkWeightRows(const SocialGraph& g, const std::vector<bool>& known, int threads = 1);

  std::span<const double> operator[](NodeId u) const {
    return {weights_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

 private:
  std::vector<size_t> offsets_;  ///< row u is weights_[offsets_[u], offsets_[u + 1])
  std::vector<double> weights_;
};

/// Adds neighbors [begin, end) of u's weighted vote into `combined` and
/// `total`, in adjacency order, skipping links of weight <= 0:
///   combined[y] += W_{u,v} · current[v][y],  total += W_{u,v}.
/// `weights` is u's LinkWeightRows row. Every wvRN vote goes through here,
/// so callers that split the sum (the link sanitizer's prefix sums) repeat
/// the exact additions of a whole-row vote.
void AccumulateVote(const std::vector<NodeId>& neighbors, std::span<const double> weights,
                    size_t begin, size_t end, const std::vector<LabelDistribution>& current,
                    LabelDistribution& combined, double& total);

/// One weighted-vote relational-neighbor (wvRN) estimate for node u
/// (Equation 4.3): the attribute-overlap-weighted average of the neighbors'
/// current label distributions,
///   P(l_t | N_i) = Σ_j P(l_t^j) · W_{i,j} / Σ_k W_{i,k}.
/// `weights` is u's LinkWeightRows row. Falls back to `current[u]` when u
/// has no neighbors or all weights vanish.
LabelDistribution RelationalPredict(const SocialGraph& g, NodeId u,
                                    std::span<const double> weights,
                                    const std::vector<LabelDistribution>& current);

/// RelationalPredict written into `out`, reusing its storage: the same
/// operations in the same order, so the same doubles. `out` must not be an
/// element of `current`.
void RelationalPredictInto(const SocialGraph& g, NodeId u, std::span<const double> weights,
                           const std::vector<LabelDistribution>& current, LabelDistribution& out);

/// As above, computing u's weights on the spot (one-off estimates).
LabelDistribution RelationalPredict(const SocialGraph& g, NodeId u,
                                    const std::vector<LabelDistribution>& current);

/// The LinkOnly attack model of Section 3.7.2: bootstrap the unknown nodes'
/// distributions with the local attribute classifier (required because few
/// unknown nodes have labeled neighbors), then run `passes` rounds of
/// relational refinement over the unknown nodes. Known nodes keep their
/// one-hot true label throughout. Returns one distribution per node.
std::vector<LabelDistribution> LinkOnlyInference(const SocialGraph& g,
                                                 const std::vector<bool>& known,
                                                 const AttributeClassifier& local,
                                                 size_t passes = 1);

/// Builds the initial per-node distributions: one-hot for known nodes,
/// local-classifier posterior for unknown nodes. `threads` follows the exec
/// convention (0 = all cores, 1 = serial); the result is identical at every
/// setting.
std::vector<LabelDistribution> BootstrapDistributions(const SocialGraph& g,
                                                      const std::vector<bool>& known,
                                                      const AttributeClassifier& local,
                                                      int threads = 1);

}  // namespace ppdp::classify

#endif  // PPDP_CLASSIFY_RELATIONAL_H_
