#include "core/tradeoff_publisher.h"

#include <utility>

#include "classify/evaluation.h"
#include "common/rng.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace ppdp::core {

TradeoffPublisher::TradeoffPublisher(graph::SocialGraph graph, std::vector<bool> known,
                                     int threads)
    : graph_(std::move(graph)), known_(std::move(known)), threads_(threads) {}

Result<TradeoffPublisher> TradeoffPublisher::Create(graph::SocialGraph graph,
                                                    const PublisherOptions& options) {
  std::vector<bool> known;
  PPDP_ASSIGN_OR_RETURN(known, BuildKnownMask(graph, options));
  return TradeoffPublisher(std::move(graph), std::move(known), options.threads);
}

tradeoff::StrategyProblem TradeoffPublisher::BuildProblem(double delta, size_t max_sets) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("tradeoff.build_problem"));
  tradeoff::StrategyProblem problem;
  problem.profile = tradeoff::BuildProfileFromGraph(graph_, max_sets);
  problem.utility_disparity = tradeoff::HammingDisparity(problem.profile);
  problem.latent_guess = tradeoff::LatentGuessPerSet(graph_, problem.profile);
  problem.num_labels = graph_.num_labels();
  problem.delta = delta;
  // Per-phase progress counters for live /metrics scrapes of long runs.
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("tradeoff.progress.build_problem");
  done.Increment();
  return problem;
}

Result<tradeoff::StrategyResult> TradeoffPublisher::OptimizeAttributeStrategy(
    double delta, size_t max_sets) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("tradeoff.optimize_lp"));
  auto result = tradeoff::SolveOptimalStrategy(BuildProblem(delta, max_sets));
  PPDP_LOG(INFO) << "attribute-strategy LP solved" << obs::Field("ok", result.ok())
                 << obs::Field("delta", delta) << obs::Field("max_sets", max_sets)
                 << obs::Field("seconds", span.ElapsedSeconds());
  if (!result.ok()) {
    return obs::FlightRecorder::Global().NoteFatalStatus(
        result.status(), "TradeoffPublisher::OptimizeAttributeStrategy");
  }
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("tradeoff.progress.optimize_lp");
  done.Increment();
  return result;
}

Result<PublishOutput> TradeoffPublisher::Publish(const PublishConfig& config) const {
  if (config.utility_category >= graph_.num_categories()) {
    return Status::InvalidArgument(
        "utility_category " + std::to_string(config.utility_category) + " out of range (graph has " +
        std::to_string(graph_.num_categories()) + " categories)");
  }
  obs::TraceSpan span(PPDP_SPAN_SITE("tradeoff.publish"));
  tradeoff::TradeoffConfig tradeoff_config;
  tradeoff_config.num_attributes = config.num_attributes;
  tradeoff_config.num_links = config.num_links;
  tradeoff_config.delta = config.delta;
  tradeoff_config.utility_category = config.utility_category;

  // A zero-op strategy run sanitizes nothing but still measures latent
  // privacy, giving the unsanitized baseline on the same scale.
  tradeoff::TradeoffConfig baseline_config = tradeoff_config;
  baseline_config.num_attributes = 0;
  baseline_config.num_links = 0;
  tradeoff::TradeoffOutcome baseline =
      Apply(tradeoff::Strategy::kAttributeRemoval, baseline_config);
  tradeoff::TradeoffOutcome outcome = Apply(config.strategy, tradeoff_config);

  PublishOutput output;
  output.kind = PublisherKindName(kind());
  output.privacy_before = baseline.latent_privacy;
  output.privacy_after = outcome.latent_privacy;
  output.utility_loss = outcome.prediction_loss;
  output.attributes_sanitized = outcome.attributes_sanitized;
  output.links_removed = outcome.links_removed;
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("tradeoff.progress.publish");
  done.Increment();
  return output;
}

tradeoff::TradeoffOutcome TradeoffPublisher::Apply(tradeoff::Strategy strategy,
                                                   const tradeoff::TradeoffConfig& config) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("tradeoff.apply_strategy"));
  tradeoff::TradeoffOutcome outcome = tradeoff::ApplyStrategy(graph_, known_, strategy, config);
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("tradeoff.progress.apply_strategy");
  done.Increment();
  return outcome;
}

}  // namespace ppdp::core
