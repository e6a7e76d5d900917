#include <gtest/gtest.h>

#include <algorithm>

#include "classify/evaluation.h"
#include "classify/naive_bayes.h"
#include "classify/relational.h"
#include "common/rng.h"
#include "graph/graph_generators.h"
#include "sanitize/attribute_selection.h"
#include "sanitize/collective_sanitizer.h"
#include "sanitize/generalization.h"
#include "sanitize/link_selection.h"

namespace ppdp::sanitize {
namespace {

using graph::SocialGraph;

SocialGraph SmallCaltech(uint64_t seed = 11) {
  return GenerateSyntheticGraph(graph::CaltechLikeConfig(0.25, seed));
}

TEST(AttributeSelectionTest, AnalysisPartitionsConsistently) {
  SocialGraph g = SmallCaltech();
  DependencyAnalysis analysis = AnalyzeDependencies(g, /*utility_category=*/1);
  // Core ⊆ PDAs and Core ⊆ UDAs; PDA−Core and Core partition PDAs.
  for (size_t c : analysis.core) {
    EXPECT_TRUE(std::binary_search(analysis.privacy_dependent.begin(),
                                   analysis.privacy_dependent.end(), c));
    EXPECT_TRUE(std::binary_search(analysis.utility_dependent.begin(),
                                   analysis.utility_dependent.end(), c));
  }
  EXPECT_EQ(analysis.core.size() + analysis.pda_minus_core.size(),
            analysis.privacy_dependent.size());
  // Nothing references the utility category itself.
  for (size_t c : analysis.privacy_dependent) EXPECT_NE(c, 1u);
  for (size_t c : analysis.utility_dependent) EXPECT_NE(c, 1u);
}

TEST(AttributeSelectionTest, LabelReductPreservesPositiveRegion) {
  SocialGraph g = SmallCaltech();
  std::vector<size_t> reduct = LabelReduct(g, /*utility_category=*/1);
  EXPECT_FALSE(reduct.empty());
  EXPECT_LE(reduct.size(), g.num_categories() - 1);
  for (size_t c : reduct) EXPECT_NE(c, 1u);  // utility category excluded
}

TEST(AttributeSelectionTest, PdasAreTheMostDependentCategories) {
  SocialGraph g = SmallCaltech();
  DependencyAnalysis analysis = AnalyzeDependencies(g, 1);
  ASSERT_FALSE(analysis.privacy_dependent.empty());
  // Every selected PDA must rank above every unselected condition category.
  auto ranked = RankPrivacyDependence(g, 1);
  double min_selected = 1e9, max_unselected = -1e9;
  for (const auto& [c, gain] : ranked) {
    bool selected = std::binary_search(analysis.privacy_dependent.begin(),
                                       analysis.privacy_dependent.end(), c);
    if (selected) {
      min_selected = std::min(min_selected, gain);
    } else {
      max_unselected = std::max(max_unselected, gain);
    }
  }
  EXPECT_GE(min_selected, max_unselected - 1e-12);
}

TEST(AttributeSelectionTest, RankPrivacyDependenceDescending) {
  SocialGraph g = SmallCaltech();
  auto ranked = RankPrivacyDependence(g, 1);
  EXPECT_EQ(ranked.size(), g.num_categories() - 1);
  for (size_t i = 1; i < ranked.size(); ++i) EXPECT_GE(ranked[i - 1].second, ranked[i].second);
}

TEST(AttributeSelectionTest, WithDecisionCategoryReindexes) {
  SocialGraph g = SmallCaltech();
  SocialGraph view = WithDecisionCategory(g, 1);
  EXPECT_EQ(view.num_categories(), g.num_categories() - 1);
  EXPECT_EQ(view.num_labels(), g.categories()[1].num_values);
  EXPECT_EQ(view.num_nodes(), g.num_nodes());
  EXPECT_EQ(view.num_edges(), g.num_edges());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    graph::AttributeValue expected = g.Attribute(u, 1);
    if (expected == graph::kMissingAttribute) {
      EXPECT_EQ(view.GetLabel(u), graph::kUnknownLabel);
    } else {
      EXPECT_EQ(view.GetLabel(u), expected);
    }
    EXPECT_EQ(view.Attribute(u, 0), g.Attribute(u, 0));
    EXPECT_EQ(view.Attribute(u, 1), g.Attribute(u, 2));  // shifted past the decision
  }
}

TEST(LinkSelectionTest, RankingSortedByVariance) {
  SocialGraph g = SmallCaltech();
  Rng rng(3);
  auto known = classify::SampleKnownMask(g, 0.7, rng);
  classify::NaiveBayesClassifier nb;
  nb.Train(g, known);
  auto estimates = classify::BootstrapDistributions(g, known, nb);
  auto ranked = RankIndistinguishableLinks(g, known, estimates);
  ASSERT_FALSE(ranked.empty());
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].variance, ranked[i].variance);
  }
  // Only hidden-label endpoints appear as u.
  for (const auto& link : ranked) EXPECT_FALSE(known[link.u]);
}

TEST(LinkSelectionTest, RemovalCountsAndShrinksGraph) {
  SocialGraph g = SmallCaltech();
  Rng rng(3);
  auto known = classify::SampleKnownMask(g, 0.7, rng);
  classify::NaiveBayesClassifier nb;
  nb.Train(g, known);
  auto estimates = classify::BootstrapDistributions(g, known, nb);
  size_t before = g.num_edges();
  size_t removed = RemoveIndistinguishableLinks(g, known, estimates, 50);
  EXPECT_EQ(removed, 50u);
  EXPECT_EQ(g.num_edges(), before - 50);
}

/// The link scorer as first written: each excluded link recomputes u's
/// whole vote from SocialGraph::LinkWeight, and the variance is the
/// two-pass mean-then-squared-deviation form. The reference the shipped
/// scorer must match bit for bit.
double ReferenceVariance(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  double mu = sum / static_cast<double>(values.size());
  double acc = 0.0;
  for (double v : values) acc += (v - mu) * (v - mu);
  return acc / static_cast<double>(values.size());
}

classify::LabelDistribution ReferencePredictWithout(
    const SocialGraph& g, graph::NodeId u, graph::NodeId excluded,
    const std::vector<classify::LabelDistribution>& est) {
  const size_t labels = static_cast<size_t>(g.num_labels());
  classify::LabelDistribution combined(labels, 0.0);
  double total = 0.0;
  for (graph::NodeId v : g.Neighbors(u)) {
    if (v == excluded) continue;
    double w = g.LinkWeight(u, v);
    if (w <= 0.0) continue;
    total += w;
    for (size_t y = 0; y < labels; ++y) combined[y] += w * est[v][y];
  }
  if (total <= 0.0) return est[u];
  for (double& p : combined) p /= total;
  return combined;
}

/// Every link's reference score, in node-then-adjacency order.
std::vector<ScoredLink> ReferenceScores(const SocialGraph& g, const std::vector<bool>& known,
                                        const std::vector<classify::LabelDistribution>& est) {
  std::vector<ScoredLink> scored;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (known[u]) continue;
    for (graph::NodeId v : g.Neighbors(u)) {
      scored.push_back({u, v, ReferenceVariance(ReferencePredictWithout(g, u, v, est))});
    }
  }
  return scored;
}

std::vector<ScoredLink> ReferenceRanking(const SocialGraph& g, const std::vector<bool>& known,
                                         const std::vector<classify::LabelDistribution>& est) {
  std::vector<ScoredLink> scored = ReferenceScores(g, known, est);
  std::sort(scored.begin(), scored.end(), [](const ScoredLink& a, const ScoredLink& b) {
    if (a.variance != b.variance) return a.variance < b.variance;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  return scored;
}

/// Removes the first `count` distinct edges of `ranked` from `g`, skipping
/// an edge's second nomination. Returns the number removed.
size_t RemoveInRankingOrder(SocialGraph& g, const std::vector<ScoredLink>& ranked, size_t count) {
  size_t removed = 0;
  for (const ScoredLink& link : ranked) {
    if (removed >= count) break;
    if (g.RemoveEdge(link.u, link.v)) ++removed;
  }
  return removed;
}

/// An MIT-like graph (dense: average degree ~78) with a 70% known mask and
/// Naive Bayes bootstrap estimates, as bench_fig3_5 scores it.
struct LinkFixture {
  SocialGraph g;
  std::vector<bool> known;
  std::vector<classify::LabelDistribution> estimates;
};

LinkFixture MitFixture(double scale, void (*edit)(SocialGraph&) = nullptr) {
  LinkFixture f{GenerateSyntheticGraph(graph::MitLikeConfig(scale, 13)), {}, {}};
  if (edit != nullptr) edit(f.g);
  Rng rng(5);
  f.known = classify::SampleKnownMask(f.g, 0.7, rng);
  classify::NaiveBayesClassifier nb;
  nb.Train(f.g, f.known);
  f.estimates = classify::BootstrapDistributions(f.g, f.known, nb);
  return f;
}

void ExpectRankingMatchesReference(const LinkFixture& f) {
  std::vector<ScoredLink> expected = ReferenceRanking(f.g, f.known, f.estimates);
  std::vector<ScoredLink> actual = RankIndistinguishableLinks(f.g, f.known, f.estimates);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].u, expected[i].u) << "rank " << i;
    EXPECT_EQ(actual[i].v, expected[i].v) << "rank " << i;
    EXPECT_EQ(actual[i].variance, expected[i].variance) << "rank " << i;  // exact
  }
}

TEST(LinkSelectionTest, RankingIsBitIdenticalToPerLinkRecomputation) {
  for (double scale : {0.01, 0.02, 0.05}) {
    SCOPED_TRACE(scale);
    LinkFixture f = MitFixture(scale);
    ASSERT_GT(f.g.num_edges(), 0u);
    ExpectRankingMatchesReference(f);
  }
}

TEST(LinkSelectionTest, AllCategoriesMaskedFallsBackToOwnEstimate) {
  LinkFixture f = MitFixture(0.02, [](SocialGraph& g) {
    for (size_t c = 0; c < g.num_categories(); ++c) g.MaskCategory(c);
  });
  ExpectRankingMatchesReference(f);
  // Every weight is 0, so each link scores the variance of its own
  // endpoint's estimate.
  for (const ScoredLink& link : RankIndistinguishableLinks(f.g, f.known, f.estimates)) {
    EXPECT_EQ(link.variance, ReferenceVariance(f.estimates[link.u]));
  }
}

TEST(LinkSelectionTest, LowDegreeHiddenNodesScoreLikeTheReference) {
  LinkFixture f = MitFixture(0.01, [](SocialGraph& g) {
    std::vector<graph::AttributeValue> attrs(g.num_categories(), 0);
    g.AddNode(attrs, 0);                         // degree 0
    graph::NodeId pendant = g.AddNode(attrs, 1);  // degree 1
    g.AddEdge(pendant, 0);
  });
  const graph::NodeId isolated = static_cast<graph::NodeId>(f.g.num_nodes() - 2);
  const graph::NodeId pendant = isolated + 1;
  f.known[isolated] = false;
  f.known[pendant] = false;
  ExpectRankingMatchesReference(f);
  size_t pendant_links = 0;
  for (const ScoredLink& link : RankIndistinguishableLinks(f.g, f.known, f.estimates)) {
    EXPECT_NE(link.u, isolated);
    if (link.u == pendant) {
      ++pendant_links;
      // Dropping its only link leaves nothing to vote: own estimate.
      EXPECT_EQ(link.variance, ReferenceVariance(f.estimates[pendant]));
    }
  }
  EXPECT_EQ(pendant_links, 1u);
}

TEST(LinkSelectionTest, RemovalMatchesFullSortThenWalk) {
  LinkFixture f = MitFixture(0.02);
  const std::vector<ScoredLink> ranked = ReferenceRanking(f.g, f.known, f.estimates);
  for (size_t count : {size_t{0}, size_t{1}, size_t{50}, size_t{500}, f.g.num_edges()}) {
    SCOPED_TRACE(count);
    SocialGraph expected = f.g;
    size_t expected_removed = 0, twins_skipped = 0;
    for (const ScoredLink& link : ranked) {
      if (expected_removed >= count) break;
      if (expected.RemoveEdge(link.u, link.v)) {
        ++expected_removed;
      } else {
        ++twins_skipped;  // already gone: the other endpoint nominated it first
      }
    }
    SocialGraph actual = f.g;
    EXPECT_EQ(RemoveIndistinguishableLinks(actual, f.known, f.estimates, count),
              expected_removed);
    EXPECT_EQ(actual.Edges(), expected.Edges());
    if (count == f.g.num_edges()) {
      EXPECT_GT(twins_skipped, 0u);
    }
  }
}

/// Every key LinkScoreLowerBounds gives is at most the link's exact
/// (reference) score, and keys come in node-then-adjacency order.
void ExpectBoundsBelowReference(const LinkFixture& f) {
  const std::vector<ScoredLink> exact = ReferenceScores(f.g, f.known, f.estimates);
  const std::vector<ScoredLink> bounds = LinkScoreLowerBounds(f.g, f.known, f.estimates);
  ASSERT_EQ(bounds.size(), exact.size());
  for (size_t i = 0; i < bounds.size(); ++i) {
    ASSERT_EQ(bounds[i].u, exact[i].u) << "link " << i;
    ASSERT_EQ(bounds[i].v, exact[i].v) << "link " << i;
    EXPECT_LE(bounds[i].variance, exact[i].variance)
        << "link " << bounds[i].u << "-" << bounds[i].v;
  }
}

/// RemoveIndistinguishableLinks removes exactly the edges a walk down the
/// full reference ranking removes.
void ExpectRemovalMatchesReference(const LinkFixture& f, size_t count) {
  SocialGraph expected = f.g;
  const size_t expected_removed =
      RemoveInRankingOrder(expected, ReferenceRanking(f.g, f.known, f.estimates), count);
  SocialGraph actual = f.g;
  EXPECT_EQ(RemoveIndistinguishableLinks(actual, f.known, f.estimates, count), expected_removed);
  EXPECT_EQ(actual.Edges(), expected.Edges());
}

/// Hidden hubs, each with one neighbour sharing every attribute (weight 1)
/// and one sharing only `k` of 32 (weight k/32): dropping the heavy link
/// leaves k/(32 + k) of the vote's weight, so k = 1, 2 take the exact path
/// and k >= 3 the bound, with the subtraction cancelling most of the total.
LinkFixture HeavyNeighbourFixture() {
  constexpr size_t kCategories = 32;
  std::vector<graph::AttributeCategory> categories(kCategories, {"h", 4});
  LinkFixture f{SocialGraph(categories, 3), {}, {}};
  Rng rng(17);
  for (size_t k : {1, 2, 3, 4, 8, 31}) {
    std::vector<graph::AttributeValue> hub(kCategories, 0), light(kCategories, 1);
    std::fill(light.begin(), light.begin() + static_cast<std::ptrdiff_t>(k), 0);
    graph::NodeId u = f.g.AddNode(hub, graph::kUnknownLabel);
    f.g.AddEdge(u, f.g.AddNode(hub, 0));
    f.g.AddEdge(u, f.g.AddNode(light, 1));
  }
  f.known.assign(f.g.num_nodes(), false);
  for (graph::NodeId u = 0; u < f.g.num_nodes(); ++u) {
    // Heavy and light neighbours vote for opposite ends of the simplex.
    const double skew = u % 3 == 1 ? 0.98 : u % 3 == 2 ? 0.01 : rng.UniformReal();
    f.estimates.push_back({skew, (1.0 - skew) * 0.3, (1.0 - skew) * 0.7});
  }
  return f;
}

/// Estimates within 1e-9 of uniform: every vote's variance is ~1e-19, far
/// below the slack, so keys go negative and near-ties abound.
LinkFixture NearUniformFixture() {
  LinkFixture f = MitFixture(0.02);
  Rng rng(23);
  const double uniform = 1.0 / static_cast<double>(f.g.num_labels());
  for (classify::LabelDistribution& dist : f.estimates) {
    for (double& p : dist) p = uniform + 1e-9 * (rng.UniformReal() - 0.5);
  }
  return f;
}

TEST(LinkSelectionTest, LowerBoundsNeverExceedExactScores) {
  for (double scale : {0.01, 0.02, 0.05}) {
    SCOPED_TRACE(scale);
    ExpectBoundsBelowReference(MitFixture(scale));
  }
  {
    SCOPED_TRACE("heavy neighbour");
    ExpectBoundsBelowReference(HeavyNeighbourFixture());
  }
  {
    SCOPED_TRACE("near-uniform estimates");
    ExpectBoundsBelowReference(NearUniformFixture());
  }
  {
    SCOPED_TRACE("all categories masked");
    LinkFixture f = MitFixture(0.02, [](SocialGraph& g) {
      for (size_t c = 0; c < g.num_categories(); ++c) g.MaskCategory(c);
    });
    ExpectBoundsBelowReference(f);
    // Every link has weight 0, so every key is the exact score.
    const std::vector<ScoredLink> exact = ReferenceScores(f.g, f.known, f.estimates);
    const std::vector<ScoredLink> bounds = LinkScoreLowerBounds(f.g, f.known, f.estimates);
    for (size_t i = 0; i < bounds.size(); ++i) EXPECT_EQ(bounds[i].variance, exact[i].variance);
  }
  {
    SCOPED_TRACE("degree 0 and 1");
    LinkFixture f = MitFixture(0.01, [](SocialGraph& g) {
      std::vector<graph::AttributeValue> attrs(g.num_categories(), 0);
      g.AddNode(attrs, 0);
      g.AddEdge(g.AddNode(attrs, 1), 0);
    });
    f.known[f.g.num_nodes() - 2] = false;
    f.known[f.g.num_nodes() - 1] = false;
    ExpectBoundsBelowReference(f);
  }
}

TEST(LinkSelectionTest, HeavyNeighbourCancellationIsScoredExactly) {
  LinkFixture f = HeavyNeighbourFixture();
  // The k = 1, 2 hubs' heavy links leave under 1/16 of the weight: their
  // keys are exact scores, not bounds.
  const std::vector<ScoredLink> exact = ReferenceScores(f.g, f.known, f.estimates);
  const std::vector<ScoredLink> bounds = LinkScoreLowerBounds(f.g, f.known, f.estimates);
  ASSERT_EQ(bounds.size(), exact.size());
  for (graph::NodeId hub : {graph::NodeId{0}, graph::NodeId{3}}) {
    const auto it = std::find_if(bounds.begin(), bounds.end(), [&](const ScoredLink& link) {
      return link.u == hub && link.v == hub + 1;
    });
    ASSERT_NE(it, bounds.end());
    EXPECT_EQ(it->variance, exact[static_cast<size_t>(it - bounds.begin())].variance);
  }
  for (size_t count = 0; count <= f.g.num_edges(); ++count) {
    SCOPED_TRACE(count);
    ExpectRemovalMatchesReference(f, count);
  }
}

/// Estimate rows that stress the one-add vote of one-hot rows: one-hot
/// with -0.0 entries, a 5e-324 short of one-hot, one-hot twice over, and
/// soft rows, beside hidden nodes that publish nothing (every link of
/// theirs weighs 0).
LinkFixture AdversarialRowsFixture() {
  LinkFixture f = MitFixture(0.02, [](SocialGraph& g) {
    for (graph::NodeId u = 0; u < g.num_nodes(); u += 23) {
      for (size_t c = 0; c < g.num_categories(); ++c) {
        g.SetAttribute(u, c, graph::kMissingAttribute);
      }
    }
  });
  const size_t labels = static_cast<size_t>(f.g.num_labels());
  for (graph::NodeId u = 0; u < f.g.num_nodes(); ++u) {
    classify::LabelDistribution& row = f.estimates[u];
    const size_t hot = u % labels;
    switch (u % 5) {
      case 0:
        std::fill(row.begin(), row.end(), -0.0);
        row[hot] = 1.0;
        break;
      case 1:
        std::fill(row.begin(), row.end(), 0.0);
        row[hot] = 1.0 - 0x1p-53;
        row[(hot + 1) % labels] = 5e-324;
        break;
      case 2:
        std::fill(row.begin(), row.end(), 0.0);
        row[hot] = 1.0;
        row[(hot + 1) % labels] = 1.0;
        break;
      default:  // the bootstrap's: one-hot on known nodes, soft on hidden
        break;
    }
  }
  return f;
}

TEST(LinkSelectionTest, OneHotEstimateRowsScoreAndRemoveLikeTheReference) {
  LinkFixture f = AdversarialRowsFixture();
  ExpectRankingMatchesReference(f);
  ExpectBoundsBelowReference(f);
  for (size_t count : {size_t{1}, size_t{50}, size_t{500}}) {
    SCOPED_TRACE(count);
    ExpectRemovalMatchesReference(f, count);
  }
}

// The walks here reach RemoveIndistinguishableLinks' merge: near-uniform
// keys sit below the slack, so exact tops land at or above the window's
// threshold and the outside links join the heap.
TEST(LinkSelectionTest, NearUniformEstimatesRemoveLikeTheReference) {
  LinkFixture f = NearUniformFixture();
  for (size_t count : {size_t{1}, size_t{50}, size_t{500}}) {
    SCOPED_TRACE(count);
    ExpectRemovalMatchesReference(f, count);
  }
}

/// The Fig 3.5 walk: mask the `attrs` most privacy-dependent categories,
/// then repeatedly re-estimate with Naive Bayes and remove the next
/// 1000·scale links. Each step must remove exactly what a walk down the
/// full sorted ranking removes.
TEST(LinkSelectionTest, Fig35WalkMatchesFullSortThenWalk) {
  for (double scale : {0.02, 0.05, 0.1}) {
    for (uint64_t seed : {9, 13, 21}) {
      const SocialGraph original = GenerateSyntheticGraph(graph::MitLikeConfig(scale, seed));
      Rng rng(seed + 23);
      const std::vector<bool> known = classify::SampleKnownMask(original, 0.7, rng);
      const auto ranked_categories = RankPrivacyDependence(original, /*utility_category=*/0);
      const size_t step = static_cast<size_t>(1000.0 * scale);
      for (size_t attrs = 0; attrs <= 6; ++attrs) {
        SCOPED_TRACE(testing::Message() << "scale " << scale << " seed " << seed << " attrs "
                                        << attrs);
        SocialGraph g = original;
        for (size_t i = 0; i < attrs && i < ranked_categories.size(); ++i) {
          g.MaskCategory(ranked_categories[i].first);
        }
        for (int s = 0; s < 8; ++s) {
          classify::NaiveBayesClassifier nb;
          nb.Train(g, known);
          const auto estimates = classify::BootstrapDistributions(g, known, nb);
          SocialGraph expected = g;
          const size_t expected_removed = RemoveInRankingOrder(
              expected, RankIndistinguishableLinks(g, known, estimates), step);
          ASSERT_EQ(RemoveIndistinguishableLinks(g, known, estimates, step), expected_removed)
              << "step " << s;
          ASSERT_EQ(g.Edges(), expected.Edges()) << "step " << s;
        }
      }
    }
  }
}

TEST(GeneralizationTest, HierarchyWalksUpLevels) {
  GenericAttributeHierarchy gah("American film");
  ASSERT_TRUE(gah.AddConcept("American film", "Fantasy").ok());
  ASSERT_TRUE(gah.AddConcept("Fantasy", "Star Wars").ok());
  EXPECT_EQ(gah.Generalize("Star Wars", 1).value(), "Fantasy");
  EXPECT_EQ(gah.Generalize("Star Wars", 2).value(), "American film");
  EXPECT_EQ(gah.Generalize("Star Wars", 99).value(), "American film");  // clamps at root
  EXPECT_EQ(gah.Depth("Star Wars").value(), 2);
  EXPECT_EQ(gah.Depth("American film").value(), 0);
}

TEST(GeneralizationTest, HierarchyErrors) {
  GenericAttributeHierarchy gah("root");
  EXPECT_EQ(gah.AddConcept("missing", "x").code(), StatusCode::kNotFound);
  ASSERT_TRUE(gah.AddConcept("root", "x").ok());
  EXPECT_EQ(gah.AddConcept("root", "x").code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(gah.Generalize("unknown", 1).ok());
}

TEST(GeneralizationTest, NumericBinningAlgorithm4) {
  SocialGraph g({{"h1", 10}}, 2);
  for (int v = 0; v < 10; ++v) g.AddNode({v}, 0);
  GeneralizeNumericCategory(g, 0, /*level=*/5);
  // MAX=9, MIN=0, Range = 9/5 + 1 = 2 -> values 0..4.
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(g.Attribute(u, 0), static_cast<graph::AttributeValue>(u / 2));
  }
}

TEST(GeneralizationTest, HigherLevelMeansFinerBins) {
  for (int32_t level : {2, 4, 8}) {
    SocialGraph g({{"h1", 16}}, 2);
    for (int v = 0; v < 16; ++v) g.AddNode({v}, 0);
    GeneralizeNumericCategory(g, 0, level);
    std::vector<bool> seen(16, false);
    size_t distinct = 0;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      auto v = static_cast<size_t>(g.Attribute(u, 0));
      if (!seen[v]) {
        seen[v] = true;
        ++distinct;
      }
    }
    EXPECT_LE(distinct, static_cast<size_t>(level) + 1);
    EXPECT_GE(distinct, static_cast<size_t>(level) / 2);
  }
}

TEST(GeneralizationTest, MissingValuesUntouched) {
  SocialGraph g({{"h1", 10}}, 2);
  g.AddNode({graph::kMissingAttribute}, 0);
  g.AddNode({8}, 0);
  GeneralizeNumericCategory(g, 0, 2);
  EXPECT_EQ(g.Attribute(0, 0), graph::kMissingAttribute);
}

TEST(CollectiveSanitizerTest, ReportsWhatItDid) {
  SocialGraph g = SmallCaltech();
  CollectiveSanitizeOptions options;
  options.utility_category = 1;
  SanitizeReport report = CollectiveSanitize(g, options);
  // Removed categories are fully masked.
  for (size_t c : report.removed_categories) {
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(g.Attribute(u, c), graph::kMissingAttribute);
    }
  }
  // If a core exists, it was perturbed, not removed.
  if (!report.analysis.core.empty()) {
    EXPECT_EQ(report.perturbed_categories, report.analysis.core);
    EXPECT_EQ(report.removed_categories, report.analysis.pda_minus_core);
  } else {
    EXPECT_EQ(report.removed_categories, report.analysis.privacy_dependent);
  }
}

TEST(CollectiveSanitizerTest, RemovingPdasLowersAttackAccuracy) {
  SocialGraph original = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.35, 21));
  Rng rng(4);
  auto known = classify::SampleKnownMask(original, 0.7, rng);

  auto attack = [&](const SocialGraph& g) {
    auto local = classify::MakeLocalClassifier(classify::LocalModel::kNaiveBayes);
    return classify::RunAttack(g, known, classify::AttackModel::kAttrOnly, *local).accuracy;
  };

  double before = attack(original);
  SocialGraph sanitized = original;
  // Remove the top privacy-dependent categories outright.
  auto ranked = RankPrivacyDependence(sanitized, 1);
  for (size_t i = 0; i < 3 && i < ranked.size(); ++i) sanitized.MaskCategory(ranked[i].first);
  double after = attack(sanitized);
  EXPECT_LT(after, before + 1e-9);
}

TEST(CollectiveSanitizerTest, MeasureProducesBothSides) {
  SocialGraph g = SmallCaltech();
  Rng rng(4);
  auto known = classify::SampleKnownMask(g, 0.7, rng);
  PrivacyUtility pu =
      MeasurePrivacyUtility(g, known, /*utility_category=*/1, classify::LocalModel::kNaiveBayes);
  EXPECT_GT(pu.privacy_accuracy, 0.0);
  EXPECT_GT(pu.utility_accuracy, 0.0);
  EXPECT_GT(pu.Ratio(), 0.0);
}

TEST(CollectiveSanitizerTest, PriorOnlyAccuracyMatchesMajorityRate) {
  SocialGraph g({{"h1", 2}}, 2);
  // 3 known: labels {0,0,1} -> majority 0. 4 hidden: labels {0,0,1,1} -> 0.5.
  for (graph::Label y : {0, 0, 1}) g.AddNode({0}, y);
  for (graph::Label y : {0, 0, 1, 1}) g.AddNode({0}, y);
  std::vector<bool> known = {true, true, true, false, false, false, false};
  EXPECT_DOUBLE_EQ(PriorOnlyAccuracy(g, known), 0.5);
}

}  // namespace
}  // namespace ppdp::sanitize
