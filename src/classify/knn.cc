#include "classify/knn.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"

namespace ppdp::classify {

void KnnClassifier::Train(const SocialGraph& g, const std::vector<bool>& known) {
  PPDP_CHECK(known.size() == g.num_nodes());
  PPDP_CHECK(k_ >= 1);
  num_labels_ = g.num_labels();
  schema_ = AttributeSchema(g);
  train_rows_.clear();
  train_labels_.clear();
  prior_.assign(static_cast<size_t>(num_labels_), 1.0);  // Laplace prior
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!known[u]) continue;
    graph::Label y = g.GetLabel(u);
    PPDP_CHECK(y != graph::kUnknownLabel) << "training node " << u << " has no label";
    std::span<const graph::AttributeValue> row = g.Attributes(u);
    train_rows_.insert(train_rows_.end(), row.begin(), row.end());
    train_labels_.push_back(y);
    prior_[static_cast<size_t>(y)] += 1.0;
  }
  NormalizeInPlace(prior_);
}

LabelDistribution KnnClassifier::Predict(const SocialGraph& g, NodeId u) const {
  PPDP_CHECK(num_labels_ > 0) << "Predict before Train";
  PPDP_CHECK(HasAttributeSchema(g, schema_))
      << "Predict on a graph with another attribute schema";
  if (train_labels_.empty()) return prior_;

  const std::span<const graph::AttributeValue> query = g.Attributes(u);
  const size_t categories = schema_.size();
  const size_t labels = static_cast<size_t>(num_labels_);
  // counts[d·L + y]: training rows at half-unit distance d with label y.
  std::vector<uint32_t> counts((2 * categories + 1) * labels, 0);
  const graph::AttributeValue* row = train_rows_.data();
  for (graph::Label y : train_labels_) {
    size_t d = 0;
    for (size_t c = 0; c < categories; ++c) {
      // 1 for any difference, 1 more when both sides are published.
      const graph::AttributeValue a = query[c];
      const graph::AttributeValue b = row[c];
      const bool differ = a != b;
      d += static_cast<size_t>(differ) +
           static_cast<size_t>(differ && a != graph::kMissingAttribute &&
                               b != graph::kMissingAttribute);
    }
    ++counts[d * labels + static_cast<size_t>(y)];
    row += categories;
  }

  // The k-th smallest distance is the first one whose cumulative count
  // reaches k; every row at or below it votes.
  const size_t k = std::min(k_, train_labels_.size());
  LabelDistribution votes(labels, 0.0);
  size_t seen = 0;
  for (size_t d = 0; seen < k; ++d) {
    for (size_t y = 0; y < labels; ++y) {
      const uint32_t n = counts[d * labels + y];
      seen += n;
      votes[y] += static_cast<double>(n);
    }
  }
  NormalizeInPlace(votes);
  return votes;
}

}  // namespace ppdp::classify
