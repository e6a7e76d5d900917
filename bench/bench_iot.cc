// Section-6.1 extension: the service-quality vs privacy tradeoff of
// locally-private IoT data collection. Sweeps the per-reading ε preference
// and the population size, reporting the aggregation server's service
// quality (total-variation agreement with the true frequency profile) —
// then repeats the collection over an unreliable link (the "iot.send"
// fault point driving a ResilientChannel) to chart quality vs loss rate.
//
//   $ ./bench_iot [--seed 5] [--rows 8000] [--fault_seed 1] [--fault_rate 0.2]
//
// --fault_rate pins the loss sweep to a single injected fault rate;
// --fault_seed replays a specific deterministic fault schedule.
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "iot/channel.h"
#include "iot/collection.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0,
                            {"rows", "fault_seed", "fault_rate"});
  ppdp::Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 8000));

  std::vector<ppdp::iot::SensorSchema> schema = {
      {"activity", 6}, {"occupancy", 2}, {"location-cell", 16}};
  std::vector<std::vector<double>> truth = {
      {0.35, 0.25, 0.15, 0.1, 0.1, 0.05},
      {0.8, 0.2},
      {},
  };
  truth[2].assign(16, 1.0 / 16.0);
  truth[2][0] = 0.3;  // one popular cell
  {
    double rest = 0.7 / 15.0;
    for (size_t v = 1; v < 16; ++v) truth[2][v] = rest;
  }

  ppdp::Table table({"sensor", "epsilon/reading", "readings", "service quality"});
  for (double epsilon : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    for (size_t sensor = 0; sensor < schema.size(); ++sensor) {
      ppdp::iot::PrivacyProxy proxy({schema[sensor]}, {{epsilon, 1e12}}, env.seed + sensor);
      ppdp::iot::AggregationServer server({schema[sensor]});
      ppdp::Rng rng(env.seed + 17 + sensor);
      for (size_t i = 0; i < rows; ++i) {
        size_t value = rng.Categorical(truth[sensor]);
        auto reading = proxy.Report(0, value);
        if (reading.ok()) (void)server.Ingest(*reading);
      }
      double quality = ppdp::iot::ServiceQuality(server.EstimateFrequencies(0).value(),
                                                 truth[sensor]);
      table.AddRow({schema[sensor].name, ppdp::Table::FormatDouble(epsilon, 2),
                    std::to_string(rows), ppdp::Table::FormatDouble(quality, 4)});
    }
  }
  env.Emit(table, "iot_quality",
           "IoT collection: service quality vs per-reading epsilon (LDP randomized "
           "response)");

  // Service quality vs transport loss: the same collection routed through
  // the ResilientChannel while the "iot.send" fault point injects drops,
  // duplicates, corruption and latency at increasing rates.
  uint64_t fault_seed = static_cast<uint64_t>(flags.GetInt("fault_seed", 1));
  double pinned_rate = flags.GetDouble("fault_rate", -1.0);
  std::vector<double> fault_rates = {0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75};
  if (pinned_rate >= 0.0) fault_rates = {pinned_rate};

  const double epsilon = 2.0;
  ppdp::Table loss_table({"fault rate", "sent", "delivered", "observed loss", "retries",
                          "dedup hits", "gave up", "degraded", "ci halfwidth",
                          "service quality"});
  for (double fault_rate : fault_rates) {
    ppdp::fault::FaultPlan plan;
    plan.seed = fault_seed;
    plan.point_rates["iot.send"] = fault_rate;
    ppdp::fault::ScopedFaultPlan scoped(plan);
    env.RecordFaultPlan(plan);

    ppdp::iot::PrivacyProxy proxy({schema[0]}, {{epsilon, 1e12}}, env.seed);
    ppdp::iot::AggregationServer server({schema[0]});
    // A deliberately tight retry budget so high fault rates actually lose
    // readings — that is the regime the degradation path reports on.
    ppdp::fault::RetryPolicy policy;
    policy.max_attempts = 2;
    policy.deadline_ms = 20.0;
    ppdp::iot::ResilientChannel channel(&server, policy, env.seed + 101);
    ppdp::Rng rng(env.seed + 17);
    for (size_t i = 0; i < rows; ++i) {
      size_t value = rng.Categorical(truth[0]);
      auto reading = proxy.Report(0, value);
      if (reading.ok()) (void)channel.Send(*reading);
    }
    const ppdp::iot::ChannelReport& report = channel.report();
    auto estimate = server.EstimateWithLoss(0, report.sent);
    double quality = estimate.ok()
                         ? ppdp::iot::ServiceQuality(estimate->frequencies, truth[0])
                         : 0.0;
    loss_table.AddRow(
        {ppdp::Table::FormatDouble(fault_rate, 2), std::to_string(report.sent),
         std::to_string(report.delivered),
         ppdp::Table::FormatDouble(report.ObservedLossRate(), 4),
         std::to_string(report.retries), std::to_string(report.dedup_hits),
         std::to_string(report.gave_up),
         estimate.ok() && estimate->degraded ? "yes" : "no",
         estimate.ok() ? ppdp::Table::FormatDouble(estimate->ci_halfwidth, 4) : "-",
         ppdp::Table::FormatDouble(quality, 4)});
  }
  env.Emit(loss_table, "iot_quality_vs_loss",
           "IoT collection over an unreliable link: service quality vs injected fault "
           "rate (at-least-once ResilientChannel, epsilon = 2.0)");
  return 0;
}
