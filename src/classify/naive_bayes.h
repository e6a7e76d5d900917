#ifndef PPDP_CLASSIFY_NAIVE_BAYES_H_
#define PPDP_CLASSIFY_NAIVE_BAYES_H_

#include <string>
#include <vector>

#include "classify/classifier.h"

namespace ppdp::classify {

/// Categorical Naive Bayes over the published attribute categories with
/// Laplace smoothing; missing attributes are skipped at prediction time
/// (treated as unobserved, not as a value). Matches the attribute-only
/// predictor of Section 4.3.1:
///   argmax_t P(l_t) * Π_c P(x_c | l_t).
class NaiveBayesClassifier : public AttributeClassifier {
 public:
  /// `smoothing` is the Laplace pseudo-count added per (value, label) cell.
  /// With `uniform_prior` the learned class prior is replaced by the uniform
  /// distribution — modeling an attacker who knows the attribute/label
  /// likelihoods (the strategy) but not the population profile (used by the
  /// Fig 4.3 "StrategyOnly" adversary).
  explicit NaiveBayesClassifier(double smoothing = 1.0, bool uniform_prior = false)
      : smoothing_(smoothing), uniform_prior_(uniform_prior) {}

  void Train(const SocialGraph& g, const std::vector<bool>& known) override;
  /// PPDP_CHECK-fails before Train and on a graph whose attribute schema
  /// differs from the training graph's.
  LabelDistribution Predict(const SocialGraph& g, NodeId u) const override;
  std::string name() const override { return "Bayes"; }

 private:
  double smoothing_;
  bool uniform_prior_ = false;
  int32_t num_labels_ = 0;
  std::vector<int32_t> schema_;  ///< AttributeSchema of the training graph
  std::vector<double> log_prior_;
  /// log_likelihood_[c][v][y] = log P(value v for category c | label y).
  std::vector<std::vector<std::vector<double>>> log_likelihood_;
};

}  // namespace ppdp::classify

#endif  // PPDP_CLASSIFY_NAIVE_BAYES_H_
