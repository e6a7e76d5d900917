#include "classify/collective.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "classify/relational.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "exec/parallel.h"
#include "fault/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::classify {

namespace {
/// Per-node work (one relational mix) is light; batch enough
/// nodes per chunk that scheduling cost disappears.
constexpr size_t kNodeGrain = 64;
}  // namespace

Status CollectiveConfig::Validate() const {
  if (!(std::isfinite(alpha) && std::isfinite(beta)) || alpha < 0.0 || beta < 0.0) {
    return Status::InvalidArgument("alpha and beta must be finite and non-negative");
  }
  if (alpha + beta <= 0.0) {
    return Status::InvalidArgument("alpha + beta must be positive (both zero disables Eq. 3.5)");
  }
  if (max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (!(convergence_tol >= 0.0)) {
    return Status::InvalidArgument("convergence_tol must be non-negative");
  }
  return exec::ExecConfig{threads}.Validate();
}

IcaSolver::IcaSolver(const SocialGraph& g, const std::vector<bool>& known,
                     AttributeClassifier& local, const CollectiveConfig& config)
    : g_(g), known_(known), config_(config) {
  PPDP_CHECK(known_.size() == g_.num_nodes());
  Status valid = config_.Validate();
  PPDP_CHECK(valid.ok()) << valid.ToString();
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter("classify.ica.runs");
  runs.Increment();

  links_ = VoteLinks(g_, known_, config_.threads);
  local.Train(g_, known_);
  distributions_ = LabelRows(BootstrapDistributions(g_, known_, local, config_.threads),
                             static_cast<size_t>(g_.num_labels()));
  // The bootstrap holds each unknown node's attribute posterior, which
  // stays fixed; only P_L changes per round.
  attribute_posterior_ = distributions_;
  MarkKnownRows();
  node_change_.assign(g_.num_nodes(), 0.0);
}

void IcaSolver::MarkKnownRows() {
  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    if (known_[u]) distributions_.MarkOneHot(u);
  }
}

Status IcaSolver::Step() {
  if (Done()) return Status::FailedPrecondition("ICA run already finished");
  // Crash-before-write: an injected fault aborts before this round mutates
  // anything, so resuming from the last Snapshot loses at most one round's
  // work and never observes a half-applied sweep.
  fault::FaultDecision fault_decision = PPDP_FAULT_POINT("classify.ica.round", fault::kMaskDrop);
  if (fault_decision.drop()) return fault_decision.AsStatus("classify.ica.round");

  static obs::Counter& iterations =
      obs::MetricsRegistry::Global().counter("classify.ica.iterations");
  static obs::Histogram& sweep_seconds =
      obs::MetricsRegistry::Global().histogram("classify.ica.sweep_seconds");
  const exec::ExecConfig exec_config{config_.threads};
  const double norm = config_.alpha + config_.beta;

  double sweep_start = obs::MonotonicSeconds();
  // next_ is filled once; known nodes never change, so after that only the
  // hidden slots are rewritten, and each round swaps the two buffers.
  if (next_.num_rows() == 0) next_ = distributions_;
  // Every node's re-estimate reads only the previous round's distributions
  // and writes its own slot, so the sweep parallelizes without changing a
  // single bit of the serial result.
  exec::ParallelFor(
      0, g_.num_nodes(), kNodeGrain,
      [&](size_t u) {
        if (known_[u]) {
          node_change_[u] = 0.0;
          return;
        }
        // The wvRN vote and the α/β mix, written straight into u's slot.
        const NodeId node = static_cast<NodeId>(u);
        const std::span<double> mixed = next_.MutableRow(node);
        links_.Vote(node, distributions_, mixed);
        const std::span<const double> posterior = attribute_posterior_[node];
        for (size_t y = 0; y < mixed.size(); ++y) {
          mixed[y] = (config_.alpha * posterior[y] + config_.beta * mixed[y]) / norm;
        }
        NormalizeInPlace(mixed);
        node_change_[u] = L1Distance(mixed, distributions_[node]);
      },
      exec_config);
  double max_change = 0.0;
  for (double change : node_change_) max_change = std::max(max_change, change);
  std::swap(distributions_, next_);
  ++iteration_;
  iterations.Increment();
  sweep_seconds.Observe(obs::MonotonicSeconds() - sweep_start);
  if (max_change < config_.convergence_tol) converged_ = true;
  return Status::Ok();
}

IcaCheckpoint IcaSolver::Snapshot() const {
  IcaCheckpoint checkpoint;
  checkpoint.distributions = distributions_.ToDistributions();
  checkpoint.iteration = iteration_;
  checkpoint.converged = converged_;
  return checkpoint;
}

Status IcaSolver::Restore(const IcaCheckpoint& checkpoint) {
  if (checkpoint.distributions.size() != g_.num_nodes()) {
    return Status::InvalidArgument("ICA checkpoint node count mismatch");
  }
  const size_t labels = static_cast<size_t>(g_.num_labels());
  for (const LabelDistribution& dist : checkpoint.distributions) {
    if (dist.size() != labels) {
      return Status::InvalidArgument("ICA checkpoint distribution width mismatch");
    }
    for (double p : dist) {
      if (!(std::isfinite(p) && p >= 0.0)) {
        return Status::InvalidArgument("ICA checkpoint holds a negative or non-finite entry");
      }
    }
  }
  if (checkpoint.iteration > config_.max_iterations) {
    return Status::InvalidArgument("ICA checkpoint beyond this solver's round budget");
  }
  // Known rows may be soft (a checkpoint from another mask), so they are
  // marked by value again.
  distributions_ = LabelRows(checkpoint.distributions, labels);
  MarkKnownRows();
  next_ = LabelRows();  // its known-node slots may not match the checkpoint's
  iteration_ = checkpoint.iteration;
  converged_ = checkpoint.converged;
  return Status::Ok();
}

CollectiveResult IcaSolver::Finish() const {
  CollectiveResult result;
  result.distributions = distributions_.ToDistributions();
  result.iterations = iteration_;
  result.converged = converged_;
  return result;
}

CollectiveResult CollectiveInference(const SocialGraph& g, const std::vector<bool>& known,
                                     AttributeClassifier& local, const CollectiveConfig& config) {
  obs::TraceSpan span(PPDP_SPAN_SITE("classify.ica"));
  IcaSolver solver(g, known, local, config);
  size_t consecutive_faults = 0;
  while (!solver.Done()) {
    Status stepped = solver.Step();
    if (!stepped.ok()) {
      // Injected round failure: the solver's state is intact, so retrying
      // the round in place is the recovery. The cap turns a pathological
      // rate-1.0 plan into a loud failure instead of a silent hang.
      PPDP_CHECK(++consecutive_faults < 100)
          << "ICA round failed " << consecutive_faults << " times in a row: "
          << stepped.ToString();
      continue;
    }
    consecutive_faults = 0;
  }
  CollectiveResult result = solver.Finish();
  PPDP_LOG(DEBUG) << "ICA finished" << obs::Field("iterations", result.iterations)
                  << obs::Field("converged", result.converged)
                  << obs::Field("nodes", g.num_nodes())
                  << obs::Field("seconds", span.ElapsedSeconds());
  return result;
}

}  // namespace ppdp::classify
