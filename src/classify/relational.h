#ifndef PPDP_CLASSIFY_RELATIONAL_H_
#define PPDP_CLASSIFY_RELATIONAL_H_

#include <cstddef>
#include <cstdint>
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

/// Label distributions as one row-major block: row u holds node u's
/// distribution, one double per label. A row may also be marked one-hot
/// (one entry exactly 1.0, every other ±0.0), which lets AddVote take it
/// with a single add. Marks come only from MarkOneHot, which reads the
/// row's values; MutableRow clears u's mark, so no mark outlives its row.
class LabelRows {
 public:
  static constexpr int32_t kNotOneHot = -1;

  LabelRows() = default;  ///< no rows
  /// One row per distribution, each `labels` wide (checked); no row marked.
  LabelRows(const std::vector<LabelDistribution>& dists, size_t labels);

  size_t num_rows() const { return hot_.size(); }
  std::span<const double> operator[](NodeId u) const {
    return {values_.data() + size_t{u} * labels_, labels_};
  }
  /// Row u for writing; clears its one-hot mark.
  std::span<double> MutableRow(NodeId u) {
    hot_[u] = kNotOneHot;
    return {values_.data() + size_t{u} * labels_, labels_};
  }
  /// The label whose entry is 1.0 when row u is marked one-hot, else
  /// kNotOneHot.
  int32_t OneHotLabel(NodeId u) const { return hot_[u]; }
  /// Marks row u one-hot if its values are, and clears the mark otherwise.
  void MarkOneHot(NodeId u);

  std::vector<LabelDistribution> ToDistributions() const;

 private:
  size_t labels_ = 0;
  std::vector<double> values_;  ///< num_rows() × labels_, row-major
  std::vector<int32_t> hot_;    ///< per row: its one-hot label, or kNotOneHot
};

/// One neighbour's term of a wvRN vote: combined[y] += w · row[y] for every
/// label y. When `one_hot` names a label (the row is one-hot there), only
/// combined[one_hot] += w is done. That gives the same doubles: w · 1.0 = w,
/// and each skipped term w · (±0.0) = ±0.0 adds nothing to a partial sum
/// that starts at +0.0 (DESIGN.md, "Link sanitizer: cost and exactness").
inline void AddVote(std::span<const double> row, int32_t one_hot, double w,
                    std::span<double> combined) {
  if (one_hot != LabelRows::kNotOneHot) {
    combined[static_cast<size_t>(one_hot)] += w;
    return;
  }
  for (size_t y = 0; y < combined.size(); ++y) combined[y] += w * row[y];
}

/// The wvRN vote's links for one graph state: every hidden node's links of
/// positive weight W_{u,v} (Eq. 4.2), in adjacency order, and their weight
/// total, summed in that order once. Links of weight <= 0 never vote. Any
/// edge or attribute change to `g` invalidates the lists. `threads` follows
/// the exec convention; every setting yields the same lists.
class VoteLinks {
 public:
  VoteLinks() = default;  ///< no lists; assign before use
  VoteLinks(const SocialGraph& g, const std::vector<bool>& known, int threads = 1);

  /// u's weighted-vote relational-neighbor (wvRN) estimate (Equation 4.3)
  /// over `current`, written into `out`:
  ///   P(l_t | N_i) = Σ_j P(l_t^j) · W_{i,j} / Σ_k W_{i,k},
  /// or current[u] when no link of u has positive weight. `out` must not be
  /// a row of `current`.
  void Vote(NodeId u, const LabelRows& current, std::span<double> out) const;

 private:
  std::vector<size_t> offsets_;  ///< u's links are [offsets_[u], offsets_[u + 1])
  std::vector<NodeId> targets_;
  std::vector<double> weights_;
  std::vector<double> totals_;  ///< per node: its links' weight total
};

/// One wvRN estimate for node u (Equation 4.3) over distributions that are
/// still being edited, as the per-node sweeps of one-off callers need.
/// `weights` is u's LinkWeightRows row. Falls back to `current[u]` when u
/// has no neighbors or all weights vanish. The same doubles as
/// VoteLinks::Vote.
LabelDistribution RelationalPredict(const SocialGraph& g, NodeId u,
                                    std::span<const double> weights,
                                    const std::vector<LabelDistribution>& current);

/// As above, computing u's weights on the spot (one-off estimates).
LabelDistribution RelationalPredict(const SocialGraph& g, NodeId u,
                                    const std::vector<LabelDistribution>& current);

/// The LinkOnly attack model of Section 3.7.2: bootstrap the unknown nodes'
/// distributions with the local attribute classifier (required because few
/// unknown nodes have labeled neighbors), then run `passes` rounds of
/// relational refinement over the unknown nodes. Known nodes keep their
/// one-hot true label throughout. Each pass reads the previous pass's
/// distributions only. Returns one distribution per node.
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
