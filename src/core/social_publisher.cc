#include "core/social_publisher.h"

#include <utility>

#include "classify/naive_bayes.h"
#include "classify/relational.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sanitize/attribute_selection.h"
#include "sanitize/link_selection.h"

namespace ppdp::core {

SocialPublisher::SocialPublisher(graph::SocialGraph graph, std::vector<bool> known, int threads)
    : graph_(std::move(graph)), known_(std::move(known)), threads_(threads) {
  PPDP_LOG(INFO) << "social publisher ready" << obs::Field("nodes", graph_.num_nodes())
                 << obs::Field("threads", threads_);
}

Result<SocialPublisher> SocialPublisher::Create(graph::SocialGraph graph,
                                                const PublisherOptions& options) {
  std::vector<bool> known;
  PPDP_ASSIGN_OR_RETURN(known, BuildKnownMask(graph, options));
  return SocialPublisher(std::move(graph), std::move(known), options.threads);
}

classify::CollectiveConfig SocialPublisher::Effective(
    const classify::CollectiveConfig& config) const {
  classify::CollectiveConfig effective = config;
  if (effective.threads == 0) effective.threads = threads_;
  return effective;
}

double SocialPublisher::AttackAccuracy(classify::AttackModel attack, classify::LocalModel local,
                                       const classify::CollectiveConfig& config) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("social.attack"));
  static obs::Counter& attacks =
      obs::MetricsRegistry::Global().counter("social.attacks_measured");
  attacks.Increment();
  auto classifier = classify::MakeLocalClassifier(local);
  double accuracy =
      classify::RunAttack(graph_, known_, attack, *classifier, Effective(config)).accuracy;
  PPDP_LOG(DEBUG) << "attack measured" << obs::Field("accuracy", accuracy)
                  << obs::Field("seconds", span.ElapsedSeconds());
  // Per-phase progress counters let a /metrics scrape see how far a long
  // publishing pipeline has advanced while it runs.
  static obs::Counter& done = obs::MetricsRegistry::Global().counter("social.progress.attack");
  done.Increment();
  return accuracy;
}

double SocialPublisher::PriorAccuracy() const {
  return sanitize::PriorOnlyAccuracy(graph_, known_);
}

size_t SocialPublisher::RemoveTopPrivacyAttributes(size_t count, size_t utility_category) {
  obs::TraceSpan span(PPDP_SPAN_SITE("social.remove_attributes"));
  auto ranked = sanitize::RankPrivacyDependence(graph_, utility_category);
  size_t removed = 0;
  for (const auto& [category, unused_gamma] : ranked) {
    if (removed >= count) break;
    graph_.MaskCategory(category);
    ++removed;
  }
  PPDP_LOG(INFO) << "masked privacy-dependent attributes" << obs::Field("removed", removed)
                 << obs::Field("requested", count);
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("social.progress.remove_attributes");
  done.Increment();
  return removed;
}

size_t SocialPublisher::RemoveIndistinguishableLinks(size_t count) {
  obs::TraceSpan span(PPDP_SPAN_SITE("social.remove_links"));
  classify::NaiveBayesClassifier nb;
  nb.Train(graph_, known_);
  auto estimates = classify::BootstrapDistributions(graph_, known_, nb, threads_);
  size_t removed = sanitize::RemoveIndistinguishableLinks(graph_, known_, estimates, count);
  PPDP_LOG(INFO) << "removed indistinguishable links" << obs::Field("removed", removed)
                 << obs::Field("requested", count);
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("social.progress.remove_links");
  done.Increment();
  return removed;
}

sanitize::SanitizeReport SocialPublisher::SanitizeCollective(
    const sanitize::CollectiveSanitizeOptions& options) {
  obs::TraceSpan span(PPDP_SPAN_SITE("social.sanitize_collective"));
  sanitize::SanitizeReport report = sanitize::CollectiveSanitize(graph_, options);
  PPDP_LOG(INFO) << "collective sanitization done"
                 << obs::Field("attributes_removed", report.removed_categories.size())
                 << obs::Field("core_perturbed", report.perturbed_categories.size())
                 << obs::Field("seconds", span.ElapsedSeconds());
  static obs::Counter& done =
      obs::MetricsRegistry::Global().counter("social.progress.sanitize_collective");
  done.Increment();
  return report;
}

Result<PublishOutput> SocialPublisher::Publish(const PublishConfig& config) const {
  if (config.utility_category >= graph_.num_categories()) {
    return Status::InvalidArgument(
        "utility_category " + std::to_string(config.utility_category) + " out of range (graph has " +
        std::to_string(graph_.num_categories()) + " categories)");
  }
  obs::TraceSpan span(PPDP_SPAN_SITE("social.publish"));
  const classify::LocalModel local = classify::LocalModel::kNaiveBayes;
  sanitize::PrivacyUtility before = MeasurePrivacyUtility(config.utility_category, local);

  // The held graph stays pristine so Publish is repeatable (and shareable
  // across concurrent callers); Algorithm 2 runs on a working copy.
  graph::SocialGraph working = graph_;
  sanitize::CollectiveSanitizeOptions sanitize_options;
  sanitize_options.utility_category = config.utility_category;
  sanitize::SanitizeReport report = sanitize::CollectiveSanitize(working, sanitize_options);
  sanitize::PrivacyUtility after = sanitize::MeasurePrivacyUtility(
      working, known_, config.utility_category, local, Effective({}));

  PublishOutput output;
  output.kind = PublisherKindName(kind());
  output.privacy_before = before.privacy_accuracy;
  output.privacy_after = after.privacy_accuracy;
  output.utility_loss = before.utility_accuracy - after.utility_accuracy;
  output.attributes_sanitized =
      report.removed_categories.size() + report.perturbed_categories.size();
  static obs::Counter& done = obs::MetricsRegistry::Global().counter("social.progress.publish");
  done.Increment();
  return output;
}

sanitize::PrivacyUtility SocialPublisher::MeasurePrivacyUtility(
    size_t utility_category, classify::LocalModel local,
    const classify::CollectiveConfig& config) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("social.measure_privacy_utility"));
  return sanitize::MeasurePrivacyUtility(graph_, known_, utility_category, local,
                                         Effective(config));
}

}  // namespace ppdp::core
