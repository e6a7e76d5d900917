// Reproduces Tables 3.7-3.12: utility/privacy tradeoff of the collective
// method vs. attribute removal vs. link removal.
//
//   Table 3.7:  max utility/privacy per method, α = β = 0.5
//   Tables 3.8-3.10: per-dataset sweeps over generalization level L,
//                    #removed attributes and #removed links (α = β = 0.5)
//   Table 3.11: max ratios at α = 0.1, β = 0.9
//   Table 3.12: max ratios at α = 0.9, β = 0.1
//
//   $ ./bench_table3_7to12 [--scale 0.5] [--mit_scale 0.12] [--seed 7]
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "classify/naive_bayes.h"
#include "classify/relational.h"
#include "graph/graph_generators.h"
#include "sanitize/attribute_selection.h"
#include "sanitize/collective_sanitizer.h"
#include "sanitize/link_selection.h"

namespace {

using ppdp::classify::CollectiveConfig;
using ppdp::graph::SocialGraph;

constexpr size_t kUtilityCategory = 0;

double Ratio(const SocialGraph& g, const std::vector<bool>& known,
             const CollectiveConfig& config) {
  return ppdp::sanitize::MeasurePrivacyUtility(g, known, kUtilityCategory,
                                               ppdp::classify::LocalModel::kNaiveBayes, config)
      .Ratio();
}

struct Sweeps {
  std::vector<int32_t> levels = {5, 6, 7, 8};
  std::vector<size_t> attrs;
  std::vector<size_t> links;
};

struct MethodResults {
  std::vector<double> by_level;
  std::vector<double> by_attr;
  std::vector<double> by_link;
  double MaxCollective() const { return *std::max_element(by_level.begin(), by_level.end()); }
  double MaxAttr() const { return *std::max_element(by_attr.begin(), by_attr.end()); }
  double MaxLink() const { return *std::max_element(by_link.begin(), by_link.end()); }
};

MethodResults RunDataset(const SocialGraph& original, const std::vector<bool>& known,
                         const Sweeps& sweeps, const CollectiveConfig& config) {
  MethodResults results;
  // Collective method at each generalization level.
  for (int32_t level : sweeps.levels) {
    SocialGraph g = original;
    ppdp::sanitize::CollectiveSanitize(
        g, {.utility_category = kUtilityCategory, .generalization_level = level});
    results.by_level.push_back(Ratio(g, known, config));
  }
  // Attribute removal.
  for (size_t count : sweeps.attrs) {
    SocialGraph g = original;
    auto ranked = ppdp::sanitize::RankPrivacyDependence(g, kUtilityCategory);
    for (size_t i = 0; i < count && i < ranked.size(); ++i) g.MaskCategory(ranked[i].first);
    results.by_attr.push_back(Ratio(g, known, config));
  }
  // Indistinguishable-link removal.
  for (size_t count : sweeps.links) {
    SocialGraph g = original;
    ppdp::classify::NaiveBayesClassifier nb;
    nb.Train(g, known);
    auto estimates = ppdp::classify::BootstrapDistributions(g, known, nb);
    ppdp::sanitize::RemoveIndistinguishableLinks(g, known, estimates, count);
    results.by_link.push_back(Ratio(g, known, config));
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"mit_scale"});
  ppdp::Flags flags(argc, argv);
  double mit_scale = flags.GetDouble("mit_scale", 0.25);

  struct Dataset {
    std::string name;
    SocialGraph graph;
    Sweeps sweeps;
  };
  std::vector<Dataset> datasets;
  {
    Sweeps snap;
    snap.attrs = {0, 3, 6, 9};
    snap.links = {0, static_cast<size_t>(200 * env.scale), static_cast<size_t>(400 * env.scale),
                  static_cast<size_t>(600 * env.scale)};
    datasets.push_back({"SNAP",
                        GenerateSyntheticGraph(ppdp::graph::SnapLikeConfig(env.scale, env.seed)),
                        snap});
    Sweeps caltech;
    caltech.attrs = {0, 1, 2, 3};
    caltech.links = {0, static_cast<size_t>(400 * env.scale),
                     static_cast<size_t>(800 * env.scale),
                     static_cast<size_t>(1200 * env.scale)};
    datasets.push_back(
        {"Caltech",
         GenerateSyntheticGraph(ppdp::graph::CaltechLikeConfig(env.scale, env.seed + 1)),
         caltech});
    Sweeps mit;
    mit.attrs = {0, 1, 2, 3};
    mit.links = {static_cast<size_t>(300 * mit_scale), static_cast<size_t>(600 * mit_scale),
                 static_cast<size_t>(900 * mit_scale), static_cast<size_t>(1200 * mit_scale)};
    datasets.push_back(
        {"MIT", GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(mit_scale, env.seed + 2)),
         mit});
  }

  struct AlphaBeta {
    double alpha, beta;
    std::string table_name;
    std::string heading;
  };
  AlphaBeta mixes[] = {
      {0.5, 0.5, "table3_7", "Table 3.7 - max utility/privacy, alpha=0.5 beta=0.5"},
      {0.1, 0.9, "table3_11", "Table 3.11 - max utility/privacy, alpha=0.1 beta=0.9"},
      {0.9, 0.1, "table3_12", "Table 3.12 - max utility/privacy, alpha=0.9 beta=0.1"},
  };

  for (const AlphaBeta& mix : mixes) {
    CollectiveConfig config;
    config.alpha = mix.alpha;
    config.beta = mix.beta;
    ppdp::Table maxima({"Dataset", "Collective", "Attribute removal", "Link removal"});
    for (const Dataset& dataset : datasets) {
      ppdp::Rng rng(env.seed + 17);
      auto known = ppdp::classify::SampleKnownMask(dataset.graph, 0.7, rng);
      MethodResults results = RunDataset(dataset.graph, known, dataset.sweeps, config);
      maxima.AddRow({dataset.name, ppdp::Table::FormatDouble(results.MaxCollective(), 4),
                     ppdp::Table::FormatDouble(results.MaxAttr(), 4),
                     ppdp::Table::FormatDouble(results.MaxLink(), 4)});
      // The per-dataset sweep tables only appear for the balanced mix.
      if (mix.alpha == 0.5) {
        ppdp::Table sweep({"L", "Uti/pri", "No. of R-Attr", "Uti/pri ", "No. of R-Link",
                           "Uti/pri  "});
        for (size_t i = 0; i < dataset.sweeps.levels.size(); ++i) {
          sweep.AddRow({std::to_string(dataset.sweeps.levels[i]),
                        ppdp::Table::FormatDouble(results.by_level[i], 4),
                        std::to_string(dataset.sweeps.attrs[i]),
                        ppdp::Table::FormatDouble(results.by_attr[i], 4),
                        std::to_string(dataset.sweeps.links[i]),
                        ppdp::Table::FormatDouble(results.by_link[i], 4)});
        }
        std::string id = dataset.name == "SNAP" ? "table3_8"
                         : dataset.name == "Caltech" ? "table3_9"
                                                     : "table3_10";
        env.Emit(sweep, id,
                 "Table " + std::string(id == "table3_8" ? "3.8" : id == "table3_9" ? "3.9"
                                                                                    : "3.10") +
                     " - utility/privacy sweeps on " + dataset.name + " (alpha=beta=0.5)");
      }
    }
    env.Emit(maxima, mix.table_name, mix.heading);
  }
  return 0;
}
