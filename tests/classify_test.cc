#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>

#include "classify/collective.h"
#include "classify/evaluation.h"
#include "classify/knn.h"
#include "classify/naive_bayes.h"
#include "classify/relational.h"
#include "classify/rst_classifier.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "graph/graph_generators.h"

namespace ppdp::classify {
namespace {

using graph::kMissingAttribute;
using graph::kUnknownLabel;
using graph::SocialGraph;

/// Tiny graph where attribute 0 fully determines the label.
SocialGraph DeterministicGraph() {
  SocialGraph g({{"h1", 2}, {"h2", 3}}, 2);
  for (int i = 0; i < 10; ++i) {
    graph::Label y = i % 2;
    g.AddNode({y, static_cast<graph::AttributeValue>(i % 3)}, y);
  }
  return g;
}

std::vector<bool> AllKnownExcept(size_t n, std::vector<size_t> hidden) {
  std::vector<bool> known(n, true);
  for (size_t h : hidden) known[h] = false;
  return known;
}

TEST(NaiveBayesTest, LearnsDeterministicDependency) {
  SocialGraph g = DeterministicGraph();
  NaiveBayesClassifier nb;
  nb.Train(g, AllKnownExcept(g.num_nodes(), {0, 1}));
  auto dist0 = nb.Predict(g, 0);  // attribute 0 == 0 -> label 0
  auto dist1 = nb.Predict(g, 1);  // attribute 0 == 1 -> label 1
  EXPECT_GT(dist0[0], 0.7);
  EXPECT_GT(dist1[1], 0.7);
}

TEST(NaiveBayesTest, OutputIsDistribution) {
  SocialGraph g = DeterministicGraph();
  NaiveBayesClassifier nb;
  nb.Train(g, AllKnownExcept(g.num_nodes(), {0}));
  auto dist = nb.Predict(g, 0);
  double sum = 0.0;
  for (double p : dist) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(NaiveBayesTest, MissingAttributesSkipped) {
  SocialGraph g({{"h1", 2}}, 2);
  g.AddNode({0}, 0);
  g.AddNode({1}, 1);
  g.AddNode({kMissingAttribute}, 0);
  NaiveBayesClassifier nb;
  nb.Train(g, {true, true, false});
  // The all-missing node gets (smoothed) prior ~ 50/50.
  auto dist = nb.Predict(g, 2);
  EXPECT_NEAR(dist[0], 0.5, 0.05);
}

TEST(KnnTest, NearestNeighborWins) {
  SocialGraph g = DeterministicGraph();
  KnnClassifier knn(3);
  knn.Train(g, AllKnownExcept(g.num_nodes(), {0, 1}));
  auto dist0 = knn.Predict(g, 0);
  EXPECT_GT(dist0[0], 0.5);
}

TEST(KnnTest, FallsBackToPriorWithoutTrainingData) {
  SocialGraph g = DeterministicGraph();
  KnnClassifier knn(3);
  knn.Train(g, std::vector<bool>(g.num_nodes(), false));
  auto dist = knn.Predict(g, 0);
  EXPECT_NEAR(dist[0], 0.5, 1e-9);
}

/// The KNN as it was before distances became half-unit integers: double
/// distances, nth_element for the k-th one, and a `d <= kth` vote. The
/// equivalence tests below hold KnnClassifier to it bit for bit.
class ReferenceKnn {
 public:
  ReferenceKnn(const SocialGraph& g, const std::vector<bool>& known)
      : num_labels_(g.num_labels()), prior_(static_cast<size_t>(g.num_labels()), 1.0) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (!known[u]) continue;
      std::vector<graph::AttributeValue> row(g.num_categories());
      for (size_t c = 0; c < g.num_categories(); ++c) row[c] = g.Attribute(u, c);
      rows_.push_back(std::move(row));
      labels_.push_back(g.GetLabel(u));
      prior_[static_cast<size_t>(g.GetLabel(u))] += 1.0;
    }
    NormalizeInPlace(prior_);
  }

  /// One prediction per entry of `ks`: the distances are computed once,
  /// then each k runs the old selection and vote on its own copy.
  std::vector<LabelDistribution> Predict(const SocialGraph& g, NodeId u,
                                         const std::vector<size_t>& ks) const {
    if (rows_.empty()) return std::vector<LabelDistribution>(ks.size(), prior_);
    std::vector<graph::AttributeValue> query(g.num_categories());
    for (size_t c = 0; c < g.num_categories(); ++c) query[c] = g.Attribute(u, c);
    std::vector<std::pair<double, size_t>> all_distances;
    for (size_t i = 0; i < rows_.size(); ++i) {
      double d = 0.0;
      for (size_t c = 0; c < query.size(); ++c) {
        graph::AttributeValue a = query[c];
        graph::AttributeValue b = rows_[i][c];
        if (a == kMissingAttribute && b == kMissingAttribute) continue;
        if (a == kMissingAttribute || b == kMissingAttribute) {
          d += 0.5;
        } else if (a != b) {
          d += 1.0;
        }
      }
      all_distances.emplace_back(d, i);
    }
    std::vector<LabelDistribution> predictions;
    for (size_t k_max : ks) {
      std::vector<std::pair<double, size_t>> distances = all_distances;
      size_t k = std::min(k_max, distances.size());
      std::nth_element(distances.begin(), distances.begin() + static_cast<ptrdiff_t>(k - 1),
                       distances.end());
      double kth = distances[k - 1].first;
      LabelDistribution votes(static_cast<size_t>(num_labels_), 0.0);
      for (const auto& [d, i] : distances) {
        if (d <= kth) votes[static_cast<size_t>(labels_[i])] += 1.0;
      }
      NormalizeInPlace(votes);
      predictions.push_back(std::move(votes));
    }
    return predictions;
  }

 private:
  int32_t num_labels_;
  std::vector<std::vector<graph::AttributeValue>> rows_;
  std::vector<graph::Label> labels_;
  LabelDistribution prior_;
};

/// Asserts that KnnClassifier(k) trained on (g, known) predicts exactly the
/// reference's distribution for every node in `queries` and every k in `ks`.
void ExpectKnnMatchesReference(const SocialGraph& g, const std::vector<bool>& known,
                               const std::vector<NodeId>& queries,
                               const std::vector<size_t>& ks) {
  const ReferenceKnn reference(g, known);
  std::vector<KnnClassifier> knns;
  for (size_t k : ks) {
    knns.emplace_back(k);
    knns.back().Train(g, known);
  }
  for (NodeId u : queries) {
    const std::vector<LabelDistribution> expected = reference.Predict(g, u, ks);
    for (size_t i = 0; i < ks.size(); ++i) {
      EXPECT_EQ(knns[i].Predict(g, u), expected[i]) << "node " << u << " k " << ks[i];
    }
  }
}

TEST(KnnTest, MatchesReferenceOnMitLikeGraphsAtEveryMaskAndK) {
  for (double scale : {0.01, 0.05, 0.25}) {
    SCOPED_TRACE(scale);
    const SocialGraph original = GenerateSyntheticGraph(graph::MitLikeConfig(scale, 13));
    Rng rng(7);
    const std::vector<bool> known = SampleKnownMask(original, 0.7, rng);
    const size_t num_train = static_cast<size_t>(std::count(known.begin(), known.end(), true));
    std::vector<NodeId> hidden;
    for (NodeId u = 0; u < original.num_nodes(); ++u) {
      if (!known[u]) hidden.push_back(u);
    }
    for (size_t masked = 0; masked <= original.num_categories(); ++masked) {
      SCOPED_TRACE(masked);
      SocialGraph g = original;
      for (size_t c = 0; c < masked; ++c) g.MaskCategory(c);
      ExpectKnnMatchesReference(g, known, hidden, {1, 3, 7, num_train + 5});
    }
  }
}

TEST(KnnTest, EveryRowTiedAtTheKthDistanceVotes) {
  // The query publishes {0, 0, 0}. Rows 1-2 sit at distance 0, rows 3-8 all
  // at 1 (one published mismatch) and rows 9-10 at 1 too (two one-sided
  // misses), rows 11-12 further out. With k = 3 the k-th distance is 1, so
  // rows 1-10 vote: 2 + 4 for label 0, 4 for label 1.
  SocialGraph g({{"a", 3}, {"b", 3}, {"c", 3}}, 2);
  g.AddNode({0, 0, 0}, kUnknownLabel);
  g.AddNode({0, 0, 0}, 0);
  g.AddNode({0, 0, 0}, 0);
  for (int i = 0; i < 3; ++i) g.AddNode({1, 0, 0}, 0);
  for (int i = 0; i < 3; ++i) g.AddNode({0, 2, 0}, 1);
  g.AddNode({kMissingAttribute, kMissingAttribute, 0}, 0);
  g.AddNode({0, kMissingAttribute, kMissingAttribute}, 1);
  g.AddNode({1, 1, 0}, 1);
  g.AddNode({2, 2, 2}, 0);
  const std::vector<bool> known = AllKnownExcept(g.num_nodes(), {0});
  KnnClassifier knn(3);
  knn.Train(g, known);
  const LabelDistribution dist = knn.Predict(g, 0);
  EXPECT_EQ(dist, (LabelDistribution{6.0 / 10.0, 4.0 / 10.0}));
  std::vector<size_t> every_k(g.num_nodes() + 1);
  std::iota(every_k.begin(), every_k.end(), 1);
  ExpectKnnMatchesReference(g, known, {0}, every_k);
}

TEST(KnnTest, AllMissingQueriesAndTrainingRowsMatchReference) {
  SocialGraph g({{"a", 4}, {"b", 2}, {"c", 5}}, 3);
  g.AddNode({kMissingAttribute, kMissingAttribute, kMissingAttribute}, kUnknownLabel);
  g.AddNode({1, 0, 4}, kUnknownLabel);
  g.AddNode({kMissingAttribute, 1, kMissingAttribute}, kUnknownLabel);
  for (int i = 0; i < 12; ++i) {
    g.AddNode({i % 4, i % 2, i % 5}, i % 3);
    g.AddNode({kMissingAttribute, kMissingAttribute, kMissingAttribute}, (i + 1) % 3);
  }
  const std::vector<bool> known = AllKnownExcept(g.num_nodes(), {0, 1, 2});
  ExpectKnnMatchesReference(g, known, {0, 1, 2}, {1, 2, 5, 12, 30});

  // Only all-missing training rows: every one sits at the same distance
  // from any query, so all of them vote.
  std::vector<bool> only_missing(g.num_nodes(), false);
  for (NodeId u = 4; u < g.num_nodes(); u += 2) only_missing[u] = true;
  ExpectKnnMatchesReference(g, only_missing, {0, 1, 2}, {1, 3, 6, 20});
  KnnClassifier knn(1);
  knn.Train(g, only_missing);
  EXPECT_EQ(knn.Predict(g, 1), (LabelDistribution{4.0 / 12.0, 4.0 / 12.0, 4.0 / 12.0}));
}

/// DeterministicGraph's schema with one more category, and with one more
/// value in its second category.
SocialGraph WiderCategoriesGraph() {
  SocialGraph g({{"h1", 2}, {"h2", 3}, {"h3", 4}}, 2);
  g.AddNode({1, 2, 3}, kUnknownLabel);
  return g;
}
SocialGraph WiderValuesGraph() {
  SocialGraph g({{"h1", 2}, {"h2", 9}}, 2);
  g.AddNode({1, 8}, kUnknownLabel);
  return g;
}

TEST(KnnDeathTest, PredictOnAnotherSchemaDies) {
  SocialGraph g = DeterministicGraph();
  KnnClassifier knn(3);
  knn.Train(g, AllKnownExcept(g.num_nodes(), {0}));
  EXPECT_DEATH(knn.Predict(WiderCategoriesGraph(), 0), "schema");
  EXPECT_DEATH(knn.Predict(WiderValuesGraph(), 0), "schema");
}

TEST(NaiveBayesDeathTest, PredictOnAnotherSchemaDies) {
  SocialGraph g = DeterministicGraph();
  NaiveBayesClassifier nb;
  nb.Train(g, AllKnownExcept(g.num_nodes(), {0}));
  EXPECT_DEATH(nb.Predict(WiderCategoriesGraph(), 0), "schema");
  EXPECT_DEATH(nb.Predict(WiderValuesGraph(), 0), "schema");
}

TEST(RstClassifierTest, LearnsRulesAndExposesReduct) {
  SocialGraph g = DeterministicGraph();
  RstClassifier rst;
  rst.Train(g, AllKnownExcept(g.num_nodes(), {0, 1}));
  // Attribute 0 determines the label, so the reduct should be just {0}.
  EXPECT_EQ(rst.reduct(), std::vector<size_t>{0});
  auto dist = rst.Predict(g, 0);
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
}

TEST(RelationalTest, AveragesNeighborsByWeight) {
  // Node 0 (query, hidden) connects to nodes 1 and 2 with equal weights;
  // node 1 is surely label 0, node 2 surely label 1.
  SocialGraph g({{"h1", 2}}, 2);
  g.AddNode({0}, kUnknownLabel);
  g.AddNode({0}, 0);
  g.AddNode({0}, 1);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  std::vector<LabelDistribution> est = {{0.5, 0.5}, {1.0, 0.0}, {0.0, 1.0}};
  auto dist = RelationalPredict(g, 0, est);
  EXPECT_NEAR(dist[0], 0.5, 1e-9);
  EXPECT_NEAR(dist[1], 0.5, 1e-9);
}

TEST(RelationalTest, IsolatedNodeKeepsCurrentEstimate) {
  SocialGraph g({{"h1", 2}}, 2);
  g.AddNode({0}, kUnknownLabel);
  std::vector<LabelDistribution> est = {{0.9, 0.1}};
  auto dist = RelationalPredict(g, 0, est);
  EXPECT_DOUBLE_EQ(dist[0], 0.9);
}

TEST(RelationalTest, WeightsSkewTowardSimilarNeighbor) {
  // Neighbor 1 shares the attribute with node 0 (weight 1); neighbor 2 does
  // not (weight 0) -> prediction follows neighbor 1.
  SocialGraph g({{"h1", 3}}, 2);
  g.AddNode({0}, kUnknownLabel);
  g.AddNode({0}, 0);
  g.AddNode({2}, 1);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  std::vector<LabelDistribution> est = {{0.5, 0.5}, {1.0, 0.0}, {0.0, 1.0}};
  auto dist = RelationalPredict(g, 0, est);
  EXPECT_NEAR(dist[0], 1.0, 1e-9);
}

TEST(RelationalTest, WeightRowsEqualLinkWeightPerPair) {
  // Masked categories and nodes publishing nothing included: every row
  // entry must be the exact double SocialGraph::LinkWeight returns.
  SocialGraph g = GenerateSyntheticGraph(graph::MitLikeConfig(0.02, 13));
  g.MaskCategory(2);
  for (size_t c = 0; c < g.num_categories(); ++c) g.SetAttribute(5, c, kMissingAttribute);
  Rng rng(5);
  std::vector<bool> known = SampleKnownMask(g, 0.7, rng);
  known[5] = false;
  for (int threads : {1, 4}) {
    const LinkWeightRows rows(g, known, threads);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const std::span<const double> row = rows[u];
      if (known[u]) {
        EXPECT_TRUE(row.empty());
        continue;
      }
      const auto& neighbors = g.Neighbors(u);
      ASSERT_EQ(row.size(), neighbors.size());
      for (size_t j = 0; j < neighbors.size(); ++j) {
        EXPECT_EQ(row[j], g.LinkWeight(u, neighbors[j])) << u << "-" << neighbors[j];
      }
    }
  }
}

TEST(BootstrapTest, KnownNodesAreOneHot) {
  SocialGraph g = DeterministicGraph();
  NaiveBayesClassifier nb;
  auto known = AllKnownExcept(g.num_nodes(), {3});
  nb.Train(g, known);
  auto dists = BootstrapDistributions(g, known, nb);
  EXPECT_DOUBLE_EQ(dists[0][static_cast<size_t>(g.GetLabel(0))], 1.0);
  EXPECT_LT(dists[3][0], 1.0);  // hidden node gets a soft posterior
}

TEST(CollectiveTest, ConvergesOnSmallGraph) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.15, 3));
  Rng rng(1);
  auto known = SampleKnownMask(g, 0.7, rng);
  NaiveBayesClassifier nb;
  CollectiveConfig config;
  config.max_iterations = 20;
  auto result = CollectiveInference(g, known, nb, config);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 20u);
  for (const auto& dist : result.distributions) {
    double sum = 0.0;
    for (double p : dist) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(CollectiveTest, AlphaOneMatchesAttrOnly) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.15, 3));
  Rng rng(1);
  auto known = SampleKnownMask(g, 0.7, rng);
  NaiveBayesClassifier nb1, nb2;
  CollectiveConfig config;
  config.alpha = 1.0;
  config.beta = 0.0;
  auto collective = CollectiveInference(g, known, nb1, config);
  auto attr_only = RunAttack(g, known, AttackModel::kAttrOnly, nb2);
  EXPECT_NEAR(Accuracy(g, known, collective.distributions), attr_only.accuracy, 1e-9);
}

TEST(EvaluationTest, AccuracyOnPerfectPredictions) {
  SocialGraph g = DeterministicGraph();
  std::vector<bool> known(g.num_nodes(), false);
  std::vector<LabelDistribution> dists(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    dists[u] = {0.0, 0.0};
    dists[u][static_cast<size_t>(g.GetLabel(u))] = 1.0;
  }
  EXPECT_DOUBLE_EQ(Accuracy(g, known, dists), 1.0);
}

TEST(EvaluationTest, SampleKnownMaskFraction) {
  SocialGraph g = GenerateSyntheticGraph(graph::SnapLikeConfig(0.5, 3));
  Rng rng(2);
  auto known = SampleKnownMask(g, 0.6, rng);
  size_t count = 0;
  for (bool b : known) count += b ? 1 : 0;
  EXPECT_EQ(count, static_cast<size_t>(0.6 * static_cast<double>(g.num_nodes())));
}

TEST(EvaluationTest, CollectiveBeatsPriorOnHomophilousGraph) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.3, 9));
  Rng rng(5);
  auto known = SampleKnownMask(g, 0.7, rng);
  auto local = MakeLocalClassifier(LocalModel::kNaiveBayes);
  auto outcome = RunAttack(g, known, AttackModel::kCollective, *local);
  // Majority class is 72%; planted dependencies should lift the attack well
  // above random guessing among 4 labels and above chance-level.
  EXPECT_GT(outcome.accuracy, 0.6);
  EXPECT_GT(outcome.evaluated, 0u);
}

TEST(EvaluationTest, AllThreeLocalModelsRun) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.1, 9));
  Rng rng(5);
  auto known = SampleKnownMask(g, 0.7, rng);
  for (LocalModel m : {LocalModel::kNaiveBayes, LocalModel::kKnn, LocalModel::kRst}) {
    auto local = MakeLocalClassifier(m);
    for (AttackModel a :
         {AttackModel::kAttrOnly, AttackModel::kLinkOnly, AttackModel::kCollective}) {
      auto outcome = RunAttack(g, known, a, *local);
      EXPECT_GE(outcome.accuracy, 0.0);
      EXPECT_LE(outcome.accuracy, 1.0);
    }
  }
}

TEST(EvaluationTest, RepeatedAttackStatistics) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 9));
  auto result = RepeatedAttack(g, 0.7, /*repeats=*/5, AttackModel::kAttrOnly,
                               LocalModel::kNaiveBayes, {}, /*seed=*/3);
  ASSERT_EQ(result.accuracies.size(), 5u);
  for (double a : result.accuracies) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_GE(result.stddev, 0.0);
  EXPECT_NEAR(result.mean,
              (result.accuracies[0] + result.accuracies[1] + result.accuracies[2] +
               result.accuracies[3] + result.accuracies[4]) /
                  5.0,
              1e-12);
  // Deterministic for a fixed seed.
  auto again = RepeatedAttack(g, 0.7, 5, AttackModel::kAttrOnly, LocalModel::kNaiveBayes, {}, 3);
  EXPECT_EQ(result.accuracies, again.accuracies);
}

TEST(EvaluationTest, NamesAreStable) {
  EXPECT_STREQ(AttackModelName(AttackModel::kAttrOnly), "AttrOnly");
  EXPECT_STREQ(AttackModelName(AttackModel::kLinkOnly), "LinkOnly");
  EXPECT_STREQ(AttackModelName(AttackModel::kCollective), "CC");
  EXPECT_STREQ(AttackModelName(AttackModel::kGibbs), "Gibbs");
  EXPECT_STREQ(LocalModelName(LocalModel::kRst), "RST");
}

TEST(EvaluationTest, GibbsAttackModelRuns) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.15, 9));
  Rng rng(5);
  auto known = SampleKnownMask(g, 0.7, rng);
  auto local = MakeLocalClassifier(LocalModel::kNaiveBayes);
  auto outcome = RunAttack(g, known, AttackModel::kGibbs, *local);
  EXPECT_GT(outcome.accuracy, 0.4);
  EXPECT_LE(outcome.accuracy, 1.0);
}

TEST(TuneAlphaBetaTest, ReturnsGridMemberWithComplementBeta) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 9));
  Rng rng(5);
  auto known = SampleKnownMask(g, 0.7, rng);
  std::vector<double> grid = {0.1, 0.5, 0.9};
  auto choice = TuneAlphaBeta(g, known, LocalModel::kNaiveBayes, grid, 0.25, 3);
  EXPECT_TRUE(std::find(grid.begin(), grid.end(), choice.alpha) != grid.end());
  EXPECT_DOUBLE_EQ(choice.alpha + choice.beta, 1.0);
  EXPECT_GE(choice.validation_accuracy, 0.0);
  EXPECT_LE(choice.validation_accuracy, 1.0);
}

TEST(TuneAlphaBetaTest, PicksAttributeHeavyMixOnAttributeDrivenGraph) {
  // Kill the link signal entirely (no homophily at all): the best α must be
  // at the attribute-heavy end of the grid.
  graph::SyntheticGraphConfig config = graph::CaltechLikeConfig(0.3, 9);
  config.homophily_consistency = 0.0;
  config.locality = 0.0;
  config.triadic_closure = 0.0;
  SocialGraph g = GenerateSyntheticGraph(config);
  Rng rng(5);
  auto known = SampleKnownMask(g, 0.7, rng);
  auto choice = TuneAlphaBeta(g, known, LocalModel::kNaiveBayes, {0.1, 0.5, 0.9}, 0.3, 3);
  EXPECT_GE(choice.alpha, 0.5);
}

TEST(TuneAlphaBetaTest, DeterministicForSeed) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 9));
  Rng rng(5);
  auto known = SampleKnownMask(g, 0.7, rng);
  auto a = TuneAlphaBeta(g, known, LocalModel::kNaiveBayes, {0.2, 0.8}, 0.25, 11);
  auto b = TuneAlphaBeta(g, known, LocalModel::kNaiveBayes, {0.2, 0.8}, 0.25, 11);
  EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
  EXPECT_DOUBLE_EQ(a.validation_accuracy, b.validation_accuracy);
}

TEST(ConfusionMatrixTest, HandComputedValues) {
  SocialGraph g({{"h", 2}}, 2);
  // Hidden nodes: truths {0, 0, 1, 1}; predictions {0, 1, 1, 1}.
  for (graph::Label y : {0, 0, 1, 1}) g.AddNode({0}, y);
  std::vector<bool> known(4, false);
  std::vector<LabelDistribution> dists = {
      {0.9, 0.1}, {0.2, 0.8}, {0.3, 0.7}, {0.1, 0.9}};
  ConfusionMatrix matrix = BuildConfusionMatrix(g, known, dists);
  EXPECT_EQ(matrix.total, 4u);
  EXPECT_EQ(matrix.counts[0][0], 1u);
  EXPECT_EQ(matrix.counts[0][1], 1u);
  EXPECT_EQ(matrix.counts[1][1], 2u);
  EXPECT_DOUBLE_EQ(matrix.Accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(matrix.Recall(0), 0.5);
  EXPECT_DOUBLE_EQ(matrix.Recall(1), 1.0);
  EXPECT_DOUBLE_EQ(matrix.Precision(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(matrix.MacroRecall(), 0.75);
}

TEST(ConfusionMatrixTest, MatchesAccuracyFunction) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 9));
  Rng rng(5);
  auto known = SampleKnownMask(g, 0.7, rng);
  auto local = MakeLocalClassifier(LocalModel::kNaiveBayes);
  auto outcome = RunAttack(g, known, AttackModel::kCollective, *local);
  ConfusionMatrix matrix = BuildConfusionMatrix(g, known, outcome.distributions);
  EXPECT_NEAR(matrix.Accuracy(), outcome.accuracy, 1e-12);
  EXPECT_LE(matrix.MacroRecall(), 1.0);
  EXPECT_GE(matrix.MacroRecall(), 0.0);
}


TEST(CollectiveConfigTest, ValidateRejectsBadParameters) {
  EXPECT_TRUE(CollectiveConfig{}.Validate().ok());
  CollectiveConfig bad_alpha;
  bad_alpha.alpha = -0.1;
  EXPECT_EQ(bad_alpha.Validate().code(), StatusCode::kInvalidArgument);
  CollectiveConfig zero_weights;
  zero_weights.alpha = 0.0;
  zero_weights.beta = 0.0;
  EXPECT_EQ(zero_weights.Validate().code(), StatusCode::kInvalidArgument);
  CollectiveConfig no_iterations;
  no_iterations.max_iterations = 0;
  EXPECT_EQ(no_iterations.Validate().code(), StatusCode::kInvalidArgument);
  CollectiveConfig negative_tol;
  negative_tol.convergence_tol = -1e-3;
  EXPECT_EQ(negative_tol.Validate().code(), StatusCode::kInvalidArgument);
  CollectiveConfig negative_threads;
  negative_threads.threads = -2;
  EXPECT_EQ(negative_threads.Validate().code(), StatusCode::kInvalidArgument);
}

/// The wvRN vote (Eq. 4.3) as first written: every link weight from
/// SocialGraph::LinkWeight, every neighbour's whole row multiplied in.
LabelDistribution ReferenceVote(const SocialGraph& g, NodeId u,
                                const std::vector<LabelDistribution>& current) {
  LabelDistribution combined(static_cast<size_t>(g.num_labels()), 0.0);
  double total = 0.0;
  for (NodeId v : g.Neighbors(u)) {
    const double w = g.LinkWeight(u, v);
    if (w <= 0.0) continue;
    total += w;
    for (size_t y = 0; y < combined.size(); ++y) combined[y] += w * current[v][y];
  }
  if (total <= 0.0) return current[u];
  for (double& p : combined) p /= total;
  return combined;
}

/// Algorithm 1 as first written: the attribute posteriors from a second
/// Predict pass, and every round recomputing each link weight through
/// ReferenceVote. The reference the solver's cached weight rows and
/// one-hot votes must match bit for bit. Starts from `start` instead of
/// the bootstrap when one is given.
CollectiveResult ReferenceIca(const SocialGraph& g, const std::vector<bool>& known,
                              AttributeClassifier& local, const CollectiveConfig& config,
                              const std::vector<LabelDistribution>* start = nullptr) {
  local.Train(g, known);
  CollectiveResult result;
  result.distributions = start != nullptr ? *start : BootstrapDistributions(g, known, local);
  std::vector<LabelDistribution> posterior(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!known[u]) posterior[u] = local.Predict(g, u);
  }
  const double norm = config.alpha + config.beta;
  while (result.iterations < config.max_iterations) {
    std::vector<LabelDistribution> next = result.distributions;
    double max_change = 0.0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (known[u]) continue;
      LabelDistribution link = ReferenceVote(g, u, result.distributions);
      LabelDistribution mixed(link.size());
      for (size_t y = 0; y < mixed.size(); ++y) {
        mixed[y] = (config.alpha * posterior[u][y] + config.beta * link[y]) / norm;
      }
      NormalizeInPlace(mixed);
      max_change = std::max(max_change, L1Distance(mixed, result.distributions[u]));
      next[u] = std::move(mixed);
    }
    result.distributions = std::move(next);
    ++result.iterations;
    if (max_change < config.convergence_tol) {
      result.converged = true;
      break;
    }
  }
  return result;
}

TEST(CollectiveTest, BitIdenticalToPerRoundRelationalPredictAtEveryThreadCount) {
  SocialGraph g = GenerateSyntheticGraph(graph::MitLikeConfig(0.02, 13));
  Rng rng(4);
  auto known = SampleKnownMask(g, 0.7, rng);
  CollectiveConfig config;
  config.max_iterations = 6;
  config.convergence_tol = 0.0;  // run every round
  NaiveBayesClassifier reference_nb;
  CollectiveResult expected = ReferenceIca(g, known, reference_nb, config);
  ASSERT_EQ(expected.iterations, 6u);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    NaiveBayesClassifier nb;
    CollectiveResult actual = CollectiveInference(g, known, nb, config);
    EXPECT_EQ(actual.iterations, expected.iterations);
    EXPECT_EQ(actual.converged, expected.converged);
    EXPECT_EQ(actual.distributions, expected.distributions);  // exact doubles
  }
}

TEST(IcaSolverTest, RestoreRejectsDistributionsOfTheWrongWidth) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.1, 3));
  Rng rng(1);
  auto known = SampleKnownMask(g, 0.7, rng);
  NaiveBayesClassifier nb;
  IcaSolver solver(g, known, nb, {});
  const IcaCheckpoint good = solver.Snapshot();
  ASSERT_TRUE(solver.Restore(good).ok());

  IcaCheckpoint narrow = good;
  narrow.distributions.back().pop_back();
  EXPECT_EQ(solver.Restore(narrow).code(), StatusCode::kInvalidArgument);
  IcaCheckpoint wide = good;
  wide.distributions.front().push_back(0.0);
  EXPECT_EQ(solver.Restore(wide).code(), StatusCode::kInvalidArgument);

  // A rejected checkpoint leaves the solver's state as it was.
  ASSERT_TRUE(solver.Step().ok());
  NaiveBayesClassifier fresh_nb;
  IcaSolver fresh(g, known, fresh_nb, {});
  ASSERT_TRUE(fresh.Step().ok());
  EXPECT_EQ(solver.Snapshot().distributions, fresh.Snapshot().distributions);
}

TEST(IcaSolverTest, RestoreRejectsNonFiniteAndNegativeEntries) {
  SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.1, 3));
  Rng rng(1);
  auto known = SampleKnownMask(g, 0.7, rng);
  NaiveBayesClassifier nb;
  IcaSolver solver(g, known, nb, {});
  const IcaCheckpoint good = solver.Snapshot();
  NodeId hidden = 0, visible = 0;
  while (known[hidden]) ++hidden;
  while (!known[visible]) ++visible;
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), -0.25}) {
    SCOPED_TRACE(bad);
    IcaCheckpoint hidden_slot = good;
    hidden_slot.distributions[hidden][1] = bad;
    EXPECT_EQ(solver.Restore(hidden_slot).code(), StatusCode::kInvalidArgument);
    IcaCheckpoint known_slot = good;
    known_slot.distributions[visible][0] = bad;
    EXPECT_EQ(solver.Restore(known_slot).code(), StatusCode::kInvalidArgument);
  }

  // The rejected checkpoints left the state as it was: the next round runs
  // (a NaN would abort it) and matches a fresh solver's.
  ASSERT_TRUE(solver.Step().ok());
  NaiveBayesClassifier fresh_nb;
  IcaSolver fresh(g, known, fresh_nb, {});
  ASSERT_TRUE(fresh.Step().ok());
  EXPECT_EQ(solver.Snapshot().distributions, fresh.Snapshot().distributions);
}

/// Same doubles, down to the sign of zero.
void ExpectSameBits(const std::vector<LabelDistribution>& actual,
                    const std::vector<LabelDistribution>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t u = 0; u < actual.size(); ++u) {
    ASSERT_EQ(actual[u].size(), expected[u].size()) << "node " << u;
    for (size_t y = 0; y < actual[u].size(); ++y) {
      EXPECT_EQ(std::bit_cast<uint64_t>(actual[u][y]), std::bit_cast<uint64_t>(expected[u][y]))
          << "node " << u << " label " << y << ": " << actual[u][y] << " vs " << expected[u][y];
    }
  }
}

TEST(IcaSolverTest, OneHotVotesMatchTheReferenceOnAdversarialRows) {
  // The solver marks the known rows one-hot by value and gives those a
  // one-add vote. Restored known slots here are one-hot with -0.0 entries,
  // a 5e-324 short of one-hot, one-hot twice over, soft, or plain one-hot;
  // some hidden nodes publish nothing, so every link of theirs weighs 0.
  SocialGraph g = GenerateSyntheticGraph(graph::MitLikeConfig(0.02, 13));
  Rng rng(4);
  const auto known = SampleKnownMask(g, 0.7, rng);
  size_t silent = 0;
  for (NodeId u = 0; u < g.num_nodes() && silent < 6; ++u) {
    if (known[u] || g.Degree(u) == 0) continue;
    for (size_t c = 0; c < g.num_categories(); ++c) g.SetAttribute(u, c, kMissingAttribute);
    ++silent;
  }
  ASSERT_EQ(silent, 6u);
  NaiveBayesClassifier bootstrap_nb;
  bootstrap_nb.Train(g, known);
  std::vector<LabelDistribution> start = BootstrapDistributions(g, known, bootstrap_nb);
  const size_t labels = static_cast<size_t>(g.num_labels());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    LabelDistribution& row = start[u];
    const size_t hot = known[u] ? static_cast<size_t>(g.GetLabel(u)) : u % labels;
    switch (u % 5) {
      case 0:  // one-hot, the other entries -0.0
        std::fill(row.begin(), row.end(), -0.0);
        row[hot] = 1.0;
        break;
      case 1:  // near one-hot
        std::fill(row.begin(), row.end(), 0.0);
        row[hot] = 1.0 - 0x1p-53;
        row[(hot + 1) % labels] = 5e-324;
        break;
      case 2:  // two 1.0 entries
        std::fill(row.begin(), row.end(), 0.0);
        row[hot] = 1.0;
        row[(hot + 1) % labels] = 1.0;
        break;
      case 3:  // soft
        if (known[u]) std::fill(row.begin(), row.end(), 1.0 / static_cast<double>(labels));
        break;
      default:  // as bootstrapped
        break;
    }
  }
  CollectiveConfig config;
  config.max_iterations = 4;
  config.convergence_tol = 0.0;  // run every round
  NaiveBayesClassifier reference_nb;
  const CollectiveResult expected = ReferenceIca(g, known, reference_nb, config, &start);
  ASSERT_EQ(expected.iterations, 4u);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    NaiveBayesClassifier nb;
    IcaSolver solver(g, known, nb, config);
    ASSERT_TRUE(solver.Restore(IcaCheckpoint{start, 0, false}).ok());
    while (!solver.Done()) ASSERT_TRUE(solver.Step().ok());
    const CollectiveResult actual = solver.Finish();
    EXPECT_EQ(actual.iterations, expected.iterations);
    ExpectSameBits(actual.distributions, expected.distributions);
  }
}

TEST(RelationalTest, LinkOnlyInferenceMatchesPerPassReferenceVotes) {
  SocialGraph g = GenerateSyntheticGraph(graph::MitLikeConfig(0.02, 13));
  g.MaskCategory(1);
  Rng rng(6);
  const auto known = SampleKnownMask(g, 0.6, rng);
  for (size_t passes : {size_t{0}, size_t{1}, size_t{3}}) {
    SCOPED_TRACE(passes);
    NaiveBayesClassifier nb;
    nb.Train(g, known);
    std::vector<LabelDistribution> expected = BootstrapDistributions(g, known, nb);
    for (size_t pass = 0; pass < passes; ++pass) {
      std::vector<LabelDistribution> next = expected;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (!known[u]) next[u] = ReferenceVote(g, u, expected);
      }
      expected = std::move(next);
    }
    ExpectSameBits(LinkOnlyInference(g, known, nb, passes), expected);
  }
}

TEST(IcaSolverTest, RestoreIntoASteppedSolverMatchesAnUninterruptedRun) {
  // The stepped solver's second buffer holds its own earlier rounds; after
  // Restore from another run's checkpoint none of that may leak into the
  // resumed rounds.
  SocialGraph g = GenerateSyntheticGraph(graph::MitLikeConfig(0.02, 13));
  Rng rng(4);
  const auto known = SampleKnownMask(g, 0.7, rng);
  CollectiveConfig config;
  config.max_iterations = 6;
  config.convergence_tol = 0.0;  // run every round
  for (LocalModel model : {LocalModel::kNaiveBayes, LocalModel::kKnn}) {
    SCOPED_TRACE(LocalModelName(model));
    auto baseline_local = MakeLocalClassifier(model);
    const CollectiveResult baseline = CollectiveInference(g, known, *baseline_local, config);

    auto other_local = MakeLocalClassifier(model);
    IcaSolver other(g, known, *other_local, config);
    ASSERT_TRUE(other.Step().ok());
    ASSERT_TRUE(other.Step().ok());
    const IcaCheckpoint checkpoint = other.Snapshot();

    auto local = MakeLocalClassifier(model);
    IcaSolver solver(g, known, *local, config);
    for (int round = 0; round < 3; ++round) ASSERT_TRUE(solver.Step().ok());
    ASSERT_TRUE(solver.Restore(checkpoint).ok());
    while (!solver.Done()) ASSERT_TRUE(solver.Step().ok());
    const CollectiveResult resumed = solver.Finish();
    EXPECT_EQ(resumed.iterations, baseline.iterations);
    EXPECT_EQ(resumed.converged, baseline.converged);
    EXPECT_EQ(resumed.distributions, baseline.distributions);  // exact doubles
  }
}

TEST(IcaSolverTest, RestoreCarriesTheCheckpointsKnownNodeSlots) {
  // A checkpoint from a run over another mask holds soft estimates where
  // this solver's known nodes are. Rounds copy known slots forward from
  // the restored state, so a stepped solver and a fresh one restored from
  // it must agree exactly.
  SocialGraph g = GenerateSyntheticGraph(graph::MitLikeConfig(0.02, 13));
  Rng rng(4);
  const auto known = SampleKnownMask(g, 0.7, rng);
  const auto other_known = SampleKnownMask(g, 0.5, rng);
  CollectiveConfig config;
  config.max_iterations = 5;
  config.convergence_tol = 0.0;
  KnnClassifier other_knn;
  IcaSolver other(g, other_known, other_knn, config);
  ASSERT_TRUE(other.Step().ok());
  const IcaCheckpoint checkpoint = other.Snapshot();

  KnnClassifier stepped_knn;
  IcaSolver stepped(g, known, stepped_knn, config);
  for (int round = 0; round < 2; ++round) ASSERT_TRUE(stepped.Step().ok());
  ASSERT_TRUE(stepped.Restore(checkpoint).ok());
  KnnClassifier fresh_knn;
  IcaSolver fresh(g, known, fresh_knn, config);
  ASSERT_TRUE(fresh.Restore(checkpoint).ok());
  while (!stepped.Done()) ASSERT_TRUE(stepped.Step().ok());
  while (!fresh.Done()) ASSERT_TRUE(fresh.Step().ok());
  const CollectiveResult result = fresh.Finish();
  EXPECT_EQ(stepped.Finish().distributions, result.distributions);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (known[u]) {
      EXPECT_EQ(result.distributions[u], checkpoint.distributions[u]) << "node " << u;
    }
  }
}

}  // namespace
}  // namespace ppdp::classify
