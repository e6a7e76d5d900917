#include "core/genome_publisher.h"

#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace ppdp::core {

GenomePublisher::GenomePublisher(genomics::GwasCatalog catalog, genomics::TargetView view)
    : catalog_(std::move(catalog)), view_(std::move(view)) {}

Result<GenomePublisher> GenomePublisher::Create(genomics::GwasCatalog catalog,
                                                genomics::TargetView view,
                                                const PublisherOptions& options) {
  Status valid = options.Validate().Annotate("PublisherOptions");
  if (!valid.ok()) {
    return obs::FlightRecorder::Global().NoteFatalStatus(std::move(valid),
                                                         "GenomePublisher::Create");
  }
  if (catalog.associations().empty()) {
    return obs::FlightRecorder::Global().NoteFatalStatus(
        Status::InvalidArgument("cannot publish against an empty GWAS catalog"),
        "GenomePublisher::Create");
  }
  return GenomePublisher(std::move(catalog), std::move(view));
}

genomics::GenomeAttackResult GenomePublisher::Attack(
    genomics::AttackMethod method, const genomics::FactorGraph::BpOptions& options) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("genome.attack"));
  static obs::Counter& attacks =
      obs::MetricsRegistry::Global().counter("genome.attacks_measured");
  attacks.Increment();
  genomics::GenomeAttackResult result =
      genomics::RunGenomeInference(catalog_, view_, method, options);
  // Per-phase progress counters for live /metrics scrapes of long runs.
  static obs::Counter& done = obs::MetricsRegistry::Global().counter("genome.progress.attack");
  done.Increment();
  return result;
}

genomics::PrivacyReport GenomePublisher::Privacy(const std::vector<size_t>& target_traits,
                                                 genomics::AttackMethod method) const {
  return genomics::EvaluateTraitPrivacy(Attack(method), target_traits);
}

Result<PublishOutput> GenomePublisher::Publish(const PublishConfig& config) const {
  std::vector<size_t> traits = config.target_traits;
  if (traits.empty()) traits.push_back(0);
  for (size_t trait : traits) {
    if (trait >= catalog_.num_traits()) {
      return Status::InvalidArgument("target trait " + std::to_string(trait) +
                                     " out of range (catalog has " +
                                     std::to_string(catalog_.num_traits()) + " traits)");
    }
  }
  obs::TraceSpan span(PPDP_SPAN_SITE("genome.publish"));
  genomics::GputOptions options;
  options.delta = config.delta;
  // GreedySanitize takes the view by value: the held view stays pristine,
  // so Publish is repeatable and shareable across concurrent callers.
  genomics::GputResult result = genomics::GreedySanitize(catalog_, view_, traits, options);

  PublishOutput output;
  output.kind = PublisherKindName(kind());
  output.privacy_before = result.privacy_trace.empty() ? 0.0 : result.privacy_trace.front();
  output.privacy_after = result.privacy_trace.empty() ? 0.0 : result.privacy_trace.back();
  output.attributes_sanitized = result.sanitized.size();
  output.items_released = result.released;
  output.satisfied = result.satisfied;
  const size_t published_before = genomics::ReleasedSnpCount(view_);
  output.utility_loss =
      published_before == 0
          ? 0.0
          : static_cast<double>(published_before - result.released) / published_before;
  static obs::Counter& done = obs::MetricsRegistry::Global().counter("genome.progress.publish");
  done.Increment();
  return output;
}

genomics::GputResult GenomePublisher::PublishWithDeltaPrivacy(
    double delta, const std::vector<size_t>& target_traits, genomics::AttackMethod method) {
  obs::TraceSpan span(PPDP_SPAN_SITE("genome.publish_delta_privacy"));
  genomics::GputOptions options;
  options.delta = delta;
  options.method = method;
  genomics::TargetView sanitized;
  genomics::GputResult result =
      genomics::GreedySanitize(catalog_, view_, target_traits, options, &sanitized);
  view_ = std::move(sanitized);
  PPDP_LOG(INFO) << "delta-privacy publish" << obs::Field("delta", delta)
                 << obs::Field("snps_hidden", result.sanitized.size())
                 << obs::Field("snps_released", result.released)
                 << obs::Field("satisfied", result.satisfied)
                 << obs::Field("seconds", span.ElapsedSeconds());
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("genome.progress.publish_delta_privacy");
  done.Increment();
  return result;
}

}  // namespace ppdp::core
