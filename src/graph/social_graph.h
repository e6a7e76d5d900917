#ifndef PPDP_GRAPH_SOCIAL_GRAPH_H_
#define PPDP_GRAPH_SOCIAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace ppdp::graph {

/// Node identifier.
using NodeId = uint32_t;

/// Categorical attribute value; kMissingAttribute marks "not published".
using AttributeValue = int32_t;

/// Class label of the sensitive (decision) attribute; kUnknownLabel marks a
/// label hidden from the attacker.
using Label = int32_t;

inline constexpr AttributeValue kMissingAttribute = -1;
inline constexpr Label kUnknownLabel = -1;

/// Metadata for one attribute category h_r in the dissertation's notation
/// (Definition 3.2.2): a name plus the number of distinct values users can
/// publish for it.
struct AttributeCategory {
  std::string name;
  int32_t num_values = 0;
};

/// An undirected attributed social graph G(V, E, X) (Definition 3.2.1).
///
/// Every node carries a vector of categorical attribute values (one slot per
/// category, kMissingAttribute when unpublished) and a class label for the
/// sensitive decision attribute. Edges are simple and undirected; the
/// structure supports the removal operations the sanitizers rely on.
class SocialGraph {
 public:
  /// Creates an empty graph over the given attribute schema and a sensitive
  /// decision attribute with `num_labels` possible class labels.
  SocialGraph(std::vector<AttributeCategory> categories, int32_t num_labels);

  /// Adds a node. `attributes` must have one entry per category, each in
  /// [0, num_values) or kMissingAttribute; `label` in [0, num_labels) or
  /// kUnknownLabel. Returns the new node's id.
  NodeId AddNode(std::vector<AttributeValue> attributes, Label label);

  /// Adds an undirected edge; ignores self-loops and duplicates. Returns
  /// true when an edge was actually inserted.
  bool AddEdge(NodeId u, NodeId v);

  /// Removes the edge if present; returns true when something was removed.
  bool RemoveEdge(NodeId u, NodeId v);

  bool HasEdge(NodeId u, NodeId v) const;

  size_t num_nodes() const { return labels_.size(); }
  size_t num_edges() const { return num_edges_; }
  size_t num_categories() const { return categories_.size(); }
  int32_t num_labels() const { return num_labels_; }

  const std::vector<AttributeCategory>& categories() const { return categories_; }
  const std::vector<NodeId>& Neighbors(NodeId u) const;
  size_t Degree(NodeId u) const { return Neighbors(u).size(); }

  AttributeValue Attribute(NodeId u, size_t category) const;
  /// u's whole attribute row, one value per category; one node check
  /// instead of one per Attribute call.
  std::span<const AttributeValue> Attributes(NodeId u) const;
  /// Every node's attributes as one row-major block: node u's row is
  /// [u * num_categories(), (u + 1) * num_categories()). For kernels that
  /// read many rows and have checked their node ids once.
  std::span<const AttributeValue> AttributeBlock() const { return attributes_; }
  void SetAttribute(NodeId u, size_t category, AttributeValue value);

  Label GetLabel(NodeId u) const;
  void SetLabel(NodeId u, Label label);

  /// Marks every node's value for `category` as missing — the
  /// attribute-removal sanitization primitive.
  void MaskCategory(size_t category);

  /// Returns all edges as (u, v) pairs with u < v.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  /// Number of attribute values the two nodes share across categories
  /// divided by u's published attribute count — the link weight W_{i,j} of
  /// Eq. (3.2)/(4.2). Returns 0 when u publishes nothing. Asymmetric by
  /// construction.
  double LinkWeight(NodeId u, NodeId v) const;

 private:
  void CheckNode(NodeId u) const;

  std::vector<AttributeCategory> categories_;
  int32_t num_labels_;
  std::vector<AttributeValue> attributes_;  ///< num_nodes() × num_categories(), row-major
  std::vector<Label> labels_;
  std::vector<std::vector<NodeId>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace ppdp::graph

#endif  // PPDP_GRAPH_SOCIAL_GRAPH_H_
