// Reproduces Fig 4.1: latent-data privacy under the competing
// data-sanitization strategies with (a) an increasing number of sanitized
// attributes and (b) an increasing number of sanitized links, at ε = 180
// and δ = 0.4.
//
//   $ ./bench_fig4_1 [--scale 0.35] [--seed 11] [--epsilon 180] [--delta 0.4]
#include <string>

#include "bench_util.h"
#include "classify/evaluation.h"
#include "graph/graph_generators.h"
#include "tradeoff/collective_strategy.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"delta", "epsilon"});
  ppdp::Flags flags(argc, argv);

  ppdp::graph::SocialGraph g =
      GenerateSyntheticGraph(ppdp::graph::CaltechLikeConfig(env.scale, env.seed + 1));
  ppdp::Rng rng(env.seed + 29);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);

  ppdp::tradeoff::TradeoffConfig config;
  config.epsilon = flags.GetDouble("epsilon", 180.0);
  config.delta = flags.GetDouble("delta", 0.4);
  config.utility_category = 0;
  config.seed = env.seed;

  // Panel (a): x = number of attributes sanitized; strategies that touch
  // attributes plus the collective method.
  {
    ppdp::Table table({"attrs sanitized", "AttributeRemoval", "AttributePerturbing",
                       "LinkRemoval", "CollectiveSanitization"});
    for (size_t attrs : {0, 1, 2, 3}) {
      ppdp::tradeoff::TradeoffConfig c = config;
      c.num_attributes = attrs;
      c.num_links = 3 * attrs;  // collective pairs each attribute with links
      std::vector<std::string> row = {std::to_string(attrs)};
      for (auto strategy : {ppdp::tradeoff::Strategy::kAttributeRemoval,
                            ppdp::tradeoff::Strategy::kAttributePerturbing,
                            ppdp::tradeoff::Strategy::kLinkRemoval,
                            ppdp::tradeoff::Strategy::kCollectiveSanitization}) {
        auto outcome = ApplyStrategy(g, known, strategy, c);
        row.push_back(ppdp::Table::FormatDouble(outcome.latent_privacy, 4));
      }
      table.AddRow(row);
    }
    env.Emit(table, "fig4_1a",
             "Fig 4.1(a) - latent privacy vs sanitized attributes (eps=" +
                 ppdp::Table::FormatDouble(config.epsilon, 0) + ", delta=" +
                 ppdp::Table::FormatDouble(config.delta, 2) + ")");
  }

  // Panel (b): x = number of links sanitized.
  {
    ppdp::Table table(
        {"links sanitized", "LinkRemoval", "RandomLinkRemoval", "CollectiveSanitization"});
    for (size_t links : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
      ppdp::tradeoff::TradeoffConfig c = config;
      c.num_links = links * 5;  // scale the axis so removals are visible
      c.num_attributes = 1;     // collective keeps a small attribute component
      std::vector<std::string> row = {std::to_string(c.num_links)};
      for (auto strategy : {ppdp::tradeoff::Strategy::kLinkRemoval,
                            ppdp::tradeoff::Strategy::kRandomLinkRemoval,
                            ppdp::tradeoff::Strategy::kCollectiveSanitization}) {
        auto outcome = ApplyStrategy(g, known, strategy, c);
        row.push_back(ppdp::Table::FormatDouble(outcome.latent_privacy, 4));
      }
      table.AddRow(row);
    }
    env.Emit(table, "fig4_1b", "Fig 4.1(b) - latent privacy vs sanitized links");
  }
  return 0;
}
