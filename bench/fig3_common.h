#ifndef PPDP_BENCH_FIG3_COMMON_H_
#define PPDP_BENCH_FIG3_COMMON_H_

// Shared driver for Figs 3.2 / 3.3 / 3.4: sensitive-attribute prediction
// accuracy under the three attack models (AttrOnly / LinkOnly / ICA) and
// three local classifiers (Bayes / KNN / RST), as (a-c) the most
// privacy-dependent attributes and (d-f) the most indistinguishable links
// are removed.

#include <string>
#include <vector>

#include "bench_util.h"
#include "classify/evaluation.h"
#include "classify/naive_bayes.h"
#include "classify/relational.h"
#include "graph/graph_generators.h"
#include "sanitize/attribute_selection.h"
#include "sanitize/link_selection.h"

namespace ppdp::bench {

struct Fig3Config {
  std::string figure_id;                     ///< "fig3_2" etc.
  graph::SyntheticGraphConfig dataset;
  std::vector<size_t> attr_sweep;            ///< x values for panels (a-c)
  std::vector<size_t> link_sweep;            ///< x values for panels (d-f)
  size_t utility_category = 0;
  double known_fraction = 0.7;
};

inline void RunFig3(const Fig3Config& config, const BenchEnv& env) {
  graph::SocialGraph original = graph::GenerateSyntheticGraph(config.dataset);
  Rng rng(env.seed + 23);
  std::vector<bool> known = classify::SampleKnownMask(original, config.known_fraction, rng);

  auto accuracy = [&](const graph::SocialGraph& g, classify::AttackModel attack,
                      classify::LocalModel local) {
    auto classifier = classify::MakeLocalClassifier(local);
    return classify::RunAttack(g, known, attack, *classifier).accuracy;
  };

  // Panels (a-c): attribute removal, one panel per local classifier.
  for (classify::LocalModel local : {classify::LocalModel::kNaiveBayes,
                                     classify::LocalModel::kKnn, classify::LocalModel::kRst}) {
    Table table({"attrs removed", "AttrOnly", "LinkOnly",
                 std::string("ICA-") + classify::LocalModelName(local)});
    graph::SocialGraph g = original;
    auto ranked = sanitize::RankPrivacyDependence(original, config.utility_category);
    size_t removed = 0;
    for (size_t target : config.attr_sweep) {
      while (removed < target && removed < ranked.size()) {
        g.MaskCategory(ranked[removed].first);
        ++removed;
      }
      table.AddRow({std::to_string(target),
                    Table::FormatDouble(accuracy(g, classify::AttackModel::kAttrOnly, local), 4),
                    Table::FormatDouble(accuracy(g, classify::AttackModel::kLinkOnly, local), 4),
                    Table::FormatDouble(accuracy(g, classify::AttackModel::kCollective, local),
                                        4)});
    }
    env.Emit(table, config.figure_id + "_attr_" + classify::LocalModelName(local),
             config.dataset.name + ": accuracy vs removed privacy-dependent attributes, " +
                 classify::LocalModelName(local) + " as local classifier");
  }

  // Panels (d-f): indistinguishable-link removal.
  for (classify::LocalModel local : {classify::LocalModel::kNaiveBayes,
                                     classify::LocalModel::kKnn, classify::LocalModel::kRst}) {
    Table table({"links removed", "AttrOnly", "LinkOnly",
                 std::string("ICA-") + classify::LocalModelName(local)});
    graph::SocialGraph g = original;
    size_t removed = 0;
    for (size_t target : config.link_sweep) {
      if (target > removed) {
        classify::NaiveBayesClassifier nb;
        nb.Train(g, known);
        auto estimates = classify::BootstrapDistributions(g, known, nb);
        removed += sanitize::RemoveIndistinguishableLinks(g, known, estimates, target - removed);
      }
      table.AddRow({std::to_string(target),
                    Table::FormatDouble(accuracy(g, classify::AttackModel::kAttrOnly, local), 4),
                    Table::FormatDouble(accuracy(g, classify::AttackModel::kLinkOnly, local), 4),
                    Table::FormatDouble(accuracy(g, classify::AttackModel::kCollective, local),
                                        4)});
    }
    env.Emit(table, config.figure_id + "_link_" + classify::LocalModelName(local),
             config.dataset.name + ": accuracy vs removed indistinguishable links, " +
                 classify::LocalModelName(local) + " as local classifier");
  }
}

}  // namespace ppdp::bench

#endif  // PPDP_BENCH_FIG3_COMMON_H_
