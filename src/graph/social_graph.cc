#include "graph/social_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace ppdp::graph {

SocialGraph::SocialGraph(std::vector<AttributeCategory> categories, int32_t num_labels)
    : categories_(std::move(categories)), num_labels_(num_labels) {
  PPDP_CHECK(num_labels_ >= 2) << "a decision attribute needs at least two labels";
  for (const auto& c : categories_) {
    PPDP_CHECK(c.num_values >= 1) << "category " << c.name << " has no values";
  }
}

NodeId SocialGraph::AddNode(std::vector<AttributeValue> attributes, Label label) {
  PPDP_CHECK(attributes.size() == categories_.size())
      << "node has " << attributes.size() << " attributes, schema has " << categories_.size();
  for (size_t c = 0; c < attributes.size(); ++c) {
    PPDP_CHECK(attributes[c] == kMissingAttribute ||
               (attributes[c] >= 0 && attributes[c] < categories_[c].num_values))
        << "attribute value " << attributes[c] << " out of range for category "
        << categories_[c].name;
  }
  PPDP_CHECK(label == kUnknownLabel || (label >= 0 && label < num_labels_))
      << "label " << label << " out of range";
  attributes_.insert(attributes_.end(), attributes.begin(), attributes.end());
  labels_.push_back(label);
  adjacency_.emplace_back();
  return static_cast<NodeId>(labels_.size() - 1);
}

void SocialGraph::CheckNode(NodeId u) const {
  PPDP_CHECK(u < labels_.size()) << "node " << u << " out of range";
}

bool SocialGraph::AddEdge(NodeId u, NodeId v) {
  CheckNode(u);
  CheckNode(v);
  if (u == v) return false;
  if (HasEdge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  return true;
}

bool SocialGraph::RemoveEdge(NodeId u, NodeId v) {
  CheckNode(u);
  CheckNode(v);
  auto erase_from = [](std::vector<NodeId>& list, NodeId target) {
    auto it = std::find(list.begin(), list.end(), target);
    if (it == list.end()) return false;
    list.erase(it);
    return true;
  };
  if (!erase_from(adjacency_[u], v)) return false;
  PPDP_CHECK(erase_from(adjacency_[v], u)) << "asymmetric adjacency";
  --num_edges_;
  return true;
}

bool SocialGraph::HasEdge(NodeId u, NodeId v) const {
  CheckNode(u);
  CheckNode(v);
  const auto& smaller = adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
  NodeId target = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(smaller.begin(), smaller.end(), target) != smaller.end();
}

const std::vector<NodeId>& SocialGraph::Neighbors(NodeId u) const {
  CheckNode(u);
  return adjacency_[u];
}

AttributeValue SocialGraph::Attribute(NodeId u, size_t category) const {
  CheckNode(u);
  PPDP_CHECK(category < categories_.size()) << "category " << category << " out of range";
  return attributes_[u * categories_.size() + category];
}

std::span<const AttributeValue> SocialGraph::Attributes(NodeId u) const {
  CheckNode(u);
  return std::span<const AttributeValue>(attributes_).subspan(u * categories_.size(),
                                                              categories_.size());
}

void SocialGraph::SetAttribute(NodeId u, size_t category, AttributeValue value) {
  CheckNode(u);
  PPDP_CHECK(category < categories_.size()) << "category " << category << " out of range";
  PPDP_CHECK(value == kMissingAttribute ||
             (value >= 0 && value < categories_[category].num_values))
      << "attribute value " << value << " out of range";
  attributes_[u * categories_.size() + category] = value;
}

Label SocialGraph::GetLabel(NodeId u) const {
  CheckNode(u);
  return labels_[u];
}

void SocialGraph::SetLabel(NodeId u, Label label) {
  CheckNode(u);
  PPDP_CHECK(label == kUnknownLabel || (label >= 0 && label < num_labels_));
  labels_[u] = label;
}

void SocialGraph::MaskCategory(size_t category) {
  PPDP_CHECK(category < categories_.size()) << "category " << category << " out of range";
  for (size_t i = category; i < attributes_.size(); i += categories_.size()) {
    attributes_[i] = kMissingAttribute;
  }
}

std::vector<std::pair<NodeId, NodeId>> SocialGraph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges_);
  for (NodeId u = 0; u < labels_.size(); ++u) {
    for (NodeId v : adjacency_[u]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

double SocialGraph::LinkWeight(NodeId u, NodeId v) const {
  const std::span<const AttributeValue> own = Attributes(u);
  const std::span<const AttributeValue> other = Attributes(v);
  size_t published = 0;
  size_t shared = 0;
  for (size_t c = 0; c < own.size(); ++c) {
    if (own[c] == kMissingAttribute) continue;
    ++published;
    if (own[c] == other[c]) ++shared;
  }
  if (published == 0) return 0.0;
  return static_cast<double>(shared) / static_cast<double>(published);
}

}  // namespace ppdp::graph
