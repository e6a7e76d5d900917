// Reproduces Table 3.5 (utility/privacy attribute designation) and
// Table 3.6 (number of UDAs, PDAs−Core and Core per dataset).
//
//   $ ./bench_table3_56 [--scale 0.6] [--mit_scale 0.15] [--seed 7]
#include <string>

#include "bench_util.h"
#include "graph/graph_generators.h"
#include "sanitize/attribute_selection.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"mit_scale"});
  ppdp::Flags flags(argc, argv);
  double mit_scale = flags.GetDouble("mit_scale", 0.25);

  // Table 3.5: which attribute plays utility vs privacy. In the synthetic
  // datasets the decision attribute (the node label) is the privacy
  // attribute and category h1 stands in for the paper's utility choice
  // (education type / gender).
  ppdp::Table table35({"Dataset", "Utility attribute", "Privacy attribute"});
  table35.AddRow({"SNAP", "h1 (education type)", "gender (label)"});
  table35.AddRow({"Caltech", "h1 (gender)", "flag (label)"});
  table35.AddRow({"MIT", "h1 (gender)", "flag (label)"});
  env.Emit(table35, "table3_5", "Table 3.5 - utility/privacy attribute setting");

  struct Row {
    std::string name;
    ppdp::graph::SyntheticGraphConfig config;
  };
  Row rows[] = {
      {"SNAP", ppdp::graph::SnapLikeConfig(env.scale, env.seed)},
      {"Caltech", ppdp::graph::CaltechLikeConfig(env.scale, env.seed + 1)},
      {"MIT", ppdp::graph::MitLikeConfig(mit_scale, env.seed + 2)},
  };
  ppdp::Table table36({"Dataset", "No. of UDAs", "No. of PDAs - Core", "No. of Core"});
  for (const Row& row : rows) {
    ppdp::graph::SocialGraph g = ppdp::graph::GenerateSyntheticGraph(row.config);
    auto analysis = ppdp::sanitize::AnalyzeDependencies(g, /*utility_category=*/0);
    table36.AddRow({row.name, std::to_string(analysis.utility_dependent.size()),
                    std::to_string(analysis.pda_minus_core.size()),
                    std::to_string(analysis.core.size())});
  }
  env.Emit(table36, "table3_6", "Table 3.6 - PDAs, UDAs and Core");
  return 0;
}
