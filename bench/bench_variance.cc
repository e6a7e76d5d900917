// Repeated-holdout rigor check: the reproduction benches report single
// attacker-visibility splits (as the dissertation's plots do); this bench
// quantifies the split-to-split variance of every attack model so readers
// can judge which curve differences are meaningful.
//
//   $ ./bench_variance [--scale 0.5] [--repeats 5] [--seed 7]
#include <string>

#include "bench_util.h"
#include "classify/evaluation.h"
#include "graph/graph_generators.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/0.5, {"repeats"});
  ppdp::Flags flags(argc, argv);
  size_t repeats = static_cast<size_t>(flags.GetInt("repeats", 5));

  struct Dataset {
    std::string name;
    ppdp::graph::SocialGraph graph;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"SNAP", GenerateSyntheticGraph(ppdp::graph::SnapLikeConfig(env.scale,
                                                                                 env.seed))});
  datasets.push_back(
      {"Caltech",
       GenerateSyntheticGraph(ppdp::graph::CaltechLikeConfig(env.scale, env.seed + 1))});
  datasets.push_back(
      {"MIT", GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(env.scale * 0.25,
                                                                env.seed + 2))});

  ppdp::Table table({"dataset", "attack", "local", "mean accuracy", "stddev"});
  for (const Dataset& dataset : datasets) {
    for (auto attack : {ppdp::classify::AttackModel::kAttrOnly,
                        ppdp::classify::AttackModel::kLinkOnly,
                        ppdp::classify::AttackModel::kCollective}) {
      for (auto local :
           {ppdp::classify::LocalModel::kNaiveBayes, ppdp::classify::LocalModel::kRst}) {
        auto result = ppdp::classify::RepeatedAttack(dataset.graph, 0.7, repeats, attack, local,
                                                     {}, env.seed + 31);
        table.AddRow({dataset.name, ppdp::classify::AttackModelName(attack),
                      ppdp::classify::LocalModelName(local),
                      ppdp::Table::FormatDouble(result.mean, 4),
                      ppdp::Table::FormatDouble(result.stddev, 4)});
      }
    }
  }
  env.Emit(table, "attack_variance",
           "Attack accuracy mean +/- stddev over " + std::to_string(repeats) +
               " attacker-visibility splits");
  return 0;
}
