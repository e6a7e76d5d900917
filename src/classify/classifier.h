#ifndef PPDP_CLASSIFY_CLASSIFIER_H_
#define PPDP_CLASSIFY_CLASSIFIER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/social_graph.h"

namespace ppdp::classify {

using graph::NodeId;
using graph::SocialGraph;

/// A probability distribution over the sensitive attribute's class labels.
using LabelDistribution = std::vector<double>;

/// Each category's num_values: the attribute schema a classifier's tables
/// are sized for. A query graph with another schema would index past them.
inline std::vector<int32_t> AttributeSchema(const SocialGraph& g) {
  std::vector<int32_t> schema;
  schema.reserve(g.num_categories());
  for (const graph::AttributeCategory& category : g.categories()) {
    schema.push_back(category.num_values);
  }
  return schema;
}

/// True when g's schema is `schema` (see AttributeSchema).
inline bool HasAttributeSchema(const SocialGraph& g, const std::vector<int32_t>& schema) {
  return std::equal(g.categories().begin(), g.categories().end(), schema.begin(), schema.end(),
                    [](const graph::AttributeCategory& category, int32_t num_values) {
                      return category.num_values == num_values;
                    });
}

/// Interface of an attribute-based local classifier M_A: trains on the nodes
/// whose labels are visible to the attacker and predicts a label
/// distribution for any node from its published attribute set alone.
///
/// Implementations: NaiveBayesClassifier, KnnClassifier, RstClassifier —
/// the three local models the dissertation evaluates (Section 3.7.2).
class AttributeClassifier {
 public:
  virtual ~AttributeClassifier() = default;

  /// Fits the model on nodes u with known[u] == true (their labels must not
  /// be kUnknownLabel).
  virtual void Train(const SocialGraph& g, const std::vector<bool>& known) = 0;

  /// Returns P(label | attributes of u). Must be called after Train.
  virtual LabelDistribution Predict(const SocialGraph& g, NodeId u) const = 0;

  /// Short display name ("Bayes", "KNN", "RST").
  virtual std::string name() const = 0;
};

}  // namespace ppdp::classify

#endif  // PPDP_CLASSIFY_CLASSIFIER_H_
