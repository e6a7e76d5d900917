#include "classify/naive_bayes.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace ppdp::classify {

void NaiveBayesClassifier::Train(const SocialGraph& g, const std::vector<bool>& known) {
  PPDP_CHECK(known.size() == g.num_nodes());
  num_labels_ = g.num_labels();
  schema_ = AttributeSchema(g);
  const size_t labels = static_cast<size_t>(num_labels_);

  std::vector<double> label_counts(labels, smoothing_);
  log_likelihood_.assign(g.num_categories(), {});
  std::vector<std::vector<std::vector<double>>> counts(g.num_categories());
  for (size_t c = 0; c < g.num_categories(); ++c) {
    counts[c].assign(static_cast<size_t>(g.categories()[c].num_values),
                     std::vector<double>(labels, smoothing_));
  }

  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!known[u]) continue;
    graph::Label y = g.GetLabel(u);
    PPDP_CHECK(y != graph::kUnknownLabel) << "training node " << u << " has no label";
    label_counts[static_cast<size_t>(y)] += 1.0;
    for (size_t c = 0; c < g.num_categories(); ++c) {
      graph::AttributeValue v = g.Attribute(u, c);
      if (v == graph::kMissingAttribute) continue;
      counts[c][static_cast<size_t>(v)][static_cast<size_t>(y)] += 1.0;
    }
  }

  log_prior_.assign(labels, 0.0);
  if (uniform_prior_) {
    for (size_t y = 0; y < labels; ++y) log_prior_[y] = -std::log(static_cast<double>(labels));
  } else {
    double total = 0.0;
    for (double v : label_counts) total += v;
    for (size_t y = 0; y < labels; ++y) log_prior_[y] = std::log(label_counts[y] / total);
  }

  for (size_t c = 0; c < g.num_categories(); ++c) {
    const size_t num_values = counts[c].size();
    log_likelihood_[c].assign(num_values, std::vector<double>(labels, 0.0));
    // Per-label normalizer over values of this category.
    std::vector<double> per_label_total(labels, 0.0);
    for (size_t v = 0; v < num_values; ++v) {
      for (size_t y = 0; y < labels; ++y) per_label_total[y] += counts[c][v][y];
    }
    for (size_t v = 0; v < num_values; ++v) {
      for (size_t y = 0; y < labels; ++y) {
        log_likelihood_[c][v][y] = std::log(counts[c][v][y] / per_label_total[y]);
      }
    }
  }
}

LabelDistribution NaiveBayesClassifier::Predict(const SocialGraph& g, NodeId u) const {
  PPDP_CHECK(num_labels_ > 0) << "Predict before Train";
  PPDP_CHECK(HasAttributeSchema(g, schema_))
      << "Predict on a graph with another attribute schema";
  const size_t labels = static_cast<size_t>(num_labels_);
  std::vector<double> log_posterior = log_prior_;
  const std::span<const graph::AttributeValue> attributes = g.Attributes(u);
  for (size_t c = 0; c < attributes.size(); ++c) {
    graph::AttributeValue v = attributes[c];
    if (v == graph::kMissingAttribute) continue;
    for (size_t y = 0; y < labels; ++y) {
      log_posterior[y] += log_likelihood_[c][static_cast<size_t>(v)][y];
    }
  }
  // Stable softmax over log posteriors.
  double max_log = log_posterior[0];
  for (double v : log_posterior) max_log = std::max(max_log, v);
  LabelDistribution dist(labels);
  for (size_t y = 0; y < labels; ++y) dist[y] = std::exp(log_posterior[y] - max_log);
  NormalizeInPlace(dist);
  return dist;
}

}  // namespace ppdp::classify
