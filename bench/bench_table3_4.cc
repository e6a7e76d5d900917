// Reproduces Table 3.4: size of the reduct system per dataset — the number
// of condition attributes before and after reduction w.r.t. the sensitive
// decision attribute (paper: SNAP 19→13, Caltech 6→5, MIT 6→5).
//
//   $ ./bench_table3_4 [--scale 0.6] [--mit_scale 0.15] [--seed 7]
#include <string>

#include "bench_util.h"
#include "graph/graph_generators.h"
#include "rst/information_system.h"
#include "rst/reduct.h"
#include "sanitize/attribute_selection.h"

namespace {

/// Reduct size over the condition categories (all but the utility one),
/// mirroring the Table 3.4 setup where the decision attribute itself is not
/// a condition.
std::pair<size_t, size_t> ReductSizes(const ppdp::graph::SocialGraph& g,
                                      size_t utility_category) {
  return {g.num_categories() - 1, ppdp::sanitize::LabelReduct(g, utility_category).size()};
}

}  // namespace

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"mit_scale"});
  ppdp::Flags flags(argc, argv);
  double mit_scale = flags.GetDouble("mit_scale", 0.25);

  ppdp::Table table({"Decision attribute", "No. of condition attributes"});
  struct Row {
    std::string name;
    ppdp::graph::SyntheticGraphConfig config;
  };
  Row rows[] = {
      {"Gender in SNAP", ppdp::graph::SnapLikeConfig(env.scale, env.seed)},
      {"Flag in Caltech", ppdp::graph::CaltechLikeConfig(env.scale, env.seed + 1)},
      {"Flag in MIT", ppdp::graph::MitLikeConfig(mit_scale, env.seed + 2)},
  };
  for (const Row& row : rows) {
    ppdp::graph::SocialGraph g = ppdp::graph::GenerateSyntheticGraph(row.config);
    auto [before, after] = ReductSizes(g, /*utility_category=*/0);
    table.AddRow({row.name, std::to_string(before) + " -> " + std::to_string(after)});
  }
  env.Emit(table, "table3_4", "Table 3.4 - reduct system sizes");
  return 0;
}
