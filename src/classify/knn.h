#ifndef PPDP_CLASSIFY_KNN_H_
#define PPDP_CLASSIFY_KNN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "classify/classifier.h"

namespace ppdp::classify {

/// K-nearest-neighbor classifier over attribute sets. Distance is Hamming
/// over categories where both nodes publish a value, plus a half-mismatch
/// penalty per category where exactly one side is missing (so sparsely
/// published profiles don't look spuriously close).
///
/// Distances are kept as integers in half-units: per category 0 when both
/// sides are missing or equal, 1 when exactly one is missing, 2 when both
/// publish different values. A distance is therefore at most 2C for C
/// categories, and is exactly twice the fractional Hamming distance above.
///
/// Ties at the k-th rank all enter the vote: every training row whose
/// distance is at most the k-th smallest distance votes once for its label
/// (with k capped at the training-set size), and the support counts are
/// normalized to a distribution.
///
/// Cost per Predict with n training rows and L labels: O(n·C) to scan the
/// contiguous training block and fill a (2C+1) × L count table of
/// (distance, label), then O(C·L) to find the k-th distance by a cumulative
/// scan and sum the votes. No per-query sort and no n-sized allocation.
class KnnClassifier : public AttributeClassifier {
 public:
  explicit KnnClassifier(size_t k = 7) : k_(k) {}

  void Train(const SocialGraph& g, const std::vector<bool>& known) override;
  /// PPDP_CHECK-fails before Train and on a graph whose attribute schema
  /// differs from the training graph's.
  LabelDistribution Predict(const SocialGraph& g, NodeId u) const override;
  std::string name() const override { return "KNN"; }

 private:
  size_t k_;
  int32_t num_labels_ = 0;
  std::vector<int32_t> schema_;  ///< AttributeSchema of the training graph
  /// Training row i is train_rows_[i·C, (i+1)·C), C = schema_.size().
  std::vector<graph::AttributeValue> train_rows_;
  std::vector<graph::Label> train_labels_;
  LabelDistribution prior_;
};

}  // namespace ppdp::classify

#endif  // PPDP_CLASSIFY_KNN_H_
