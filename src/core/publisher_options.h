#ifndef PPDP_CORE_PUBLISHER_OPTIONS_H_
#define PPDP_CORE_PUBLISHER_OPTIONS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/social_graph.h"
#include "obs/ledger.h"

namespace ppdp::core {

/// Construction options shared by every publisher's Create factory. One
/// options struct replaces the ad-hoc positional constructor arguments
/// (known_fraction, seed, ...) the publishers used to take, so new knobs —
/// like the execution width — flow through a single surface.
struct PublisherOptions {
  /// Fraction of node labels visible to the attacker (sampled with `seed`).
  /// Publishers without an attacker-visibility mask (GenomePublisher)
  /// ignore it.
  double known_fraction = 0.7;
  /// Seed of every stochastic choice the publisher makes at construction.
  uint64_t seed = 1;
  /// Default execution width of the publisher's hot loops, following the
  /// exec convention (0 = all cores, 1 = serial). A per-call config with an
  /// explicit thread count overrides it. GenomePublisher, whose belief
  /// propagation runs serially, ignores it.
  int threads = 0;
  /// Optional audit ledger: methods that spend differential-privacy budget
  /// record their mechanism invocations here. May be null; must outlive the
  /// publisher.
  obs::PrivacyLedger* ledger = nullptr;

  /// Rejects known_fraction outside (0, 1] and negative thread counts.
  Status Validate() const;
};

/// Shared head of every graph publisher's Create chain: validates `options`,
/// rejects an empty graph, and samples the attacker-visibility mask with
/// `options.seed`. Factored out so Social/Tradeoff publishers stay in exact
/// lockstep (same validation order, same deviate stream) and so the chain
/// composes with PPDP_ASSIGN_OR_RETURN instead of hand-rolled branching.
/// Errors are annotated with the failing stage.
Result<std::vector<bool>> BuildKnownMask(const graph::SocialGraph& graph,
                                         const PublisherOptions& options);

}  // namespace ppdp::core

#endif  // PPDP_CORE_PUBLISHER_OPTIONS_H_
