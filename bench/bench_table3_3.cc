// Reproduces Table 3.3: general statistics about the three datasets
// (SNAP / Caltech / MIT analogues). Paper row order preserved.
//
//   $ ./bench_table3_3 [--scale 1.0] [--mit_scale 0.25] [--seed 7]
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/graph_generators.h"
#include "graph/graph_metrics.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"mit_scale"});
  ppdp::Flags flags(argc, argv);
  double mit_scale = flags.GetDouble("mit_scale", 0.25);

  std::vector<ppdp::graph::SyntheticGraphConfig> configs = {
      ppdp::graph::SnapLikeConfig(env.scale, env.seed),
      ppdp::graph::CaltechLikeConfig(env.scale, env.seed + 1),
      ppdp::graph::MitLikeConfig(mit_scale, env.seed + 2),
  };

  ppdp::Table table({"Network property", "SNAP", "Caltech", "MIT"});
  std::vector<std::vector<std::string>> columns;
  for (const auto& config : configs) {
    ppdp::graph::SocialGraph g = ppdp::graph::GenerateSyntheticGraph(config);
    ppdp::graph::Components comps = ppdp::graph::FindComponents(g);
    uint32_t giant = comps.LargestId();
    ppdp::graph::ComponentStats stats = ppdp::graph::StatsForComponent(g, comps, giant);
    columns.push_back({
        std::to_string(g.num_nodes()),
        std::to_string(g.num_edges()),
        std::to_string(g.num_categories()),
        std::to_string(g.num_labels()),
        std::to_string(comps.num_components()),
        std::to_string(stats.nodes),
        std::to_string(stats.edges),
        std::to_string(ppdp::graph::ApproxDiameter(g)),
    });
  }

  const char* rows[] = {"Number of nodes",
                        "Number of friendship links",
                        "Number of attributes for each user",
                        "Number of values for decision attribute",
                        "Number of components in the graph",
                        "Nodes in largest connected component",
                        "Edges in largest connected component",
                        "Diameter longest shortest path"};
  for (size_t r = 0; r < 8; ++r) {
    table.AddRow({rows[r], columns[0][r], columns[1][r], columns[2][r]});
  }
  env.Emit(table, "table3_3",
           "Table 3.3 - dataset statistics (SNAP/Caltech scale " +
               ppdp::Table::FormatDouble(env.scale, 2) + ", MIT scale " +
               ppdp::Table::FormatDouble(mit_scale, 2) + ")");
  return 0;
}
