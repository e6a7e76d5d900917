#ifndef PPDP_CLASSIFY_COLLECTIVE_H_
#define PPDP_CLASSIFY_COLLECTIVE_H_

#include <cstddef>
#include <vector>

#include "classify/classifier.h"
#include "classify/relational.h"
#include "common/status.h"

namespace ppdp::classify {

/// Parameters of the collective-inference attack (Algorithm 1 / Eq. 3.5).
struct CollectiveConfig {
  double alpha = 0.5;            ///< weight of the attribute classifier P_A
  double beta = 0.5;             ///< weight of the link classifier P_L
  size_t max_iterations = 10;    ///< ICA refinement rounds
  double convergence_tol = 1e-4; ///< stop when max per-node L1 change drops below
  int threads = 0;               ///< exec convention: 0 = all cores, 1 = serial

  /// Rejects non-finite or negative α/β, α = β = 0, zero max_iterations,
  /// a negative tolerance, and a negative thread count. Called at every
  /// inference entry point so misconfiguration surfaces as a non-OK Status
  /// instead of silent garbage.
  Status Validate() const;
};

/// Output of the collective attack.
struct CollectiveResult {
  std::vector<LabelDistribution> distributions;  ///< per node (known = one-hot)
  size_t iterations = 0;                          ///< refinement rounds executed
  bool converged = false;
};

/// Serializable mid-run state of an IcaSolver: everything a fresh process
/// needs to continue the refinement byte-identically (the attribute
/// posteriors are *not* stored — they are a deterministic function of the
/// graph, mask and classifier, and are recomputed on Restore).
struct IcaCheckpoint {
  std::vector<LabelDistribution> distributions;
  size_t iteration = 0;
  bool converged = false;
};

/// Stepwise ICA with checkpoint/resume: the engine behind
/// CollectiveInference, exposed so long runs can survive faults. One
/// Step() is one refinement round; Snapshot()/Restore() capture and
/// reinstall the mid-run state, and a run interrupted between rounds then
/// resumed from its last checkpoint produces byte-identical distributions
/// to an uninterrupted run (rounds are deterministic; no RNG is consumed
/// after bootstrap).
///
/// Fault model: Step() evaluates the "classify.ica.round" failure point
/// first and aborts with kUnavailable *before touching any state* when a
/// drop fires — crash-before-write, so the last checkpoint is always
/// consistent.
///
/// `g`, `known` and `local` are borrowed and must outlive the solver.
class IcaSolver {
 public:
  /// Trains `local` and bootstraps every unknown node (rounds 0 state).
  /// Config invariants are PPDP_CHECK-enforced, as in CollectiveInference.
  IcaSolver(const SocialGraph& g, const std::vector<bool>& known, AttributeClassifier& local,
            const CollectiveConfig& config = {});

  /// One refinement round. kUnavailable on an injected fault (state
  /// untouched), kFailedPrecondition when already Done().
  Status Step();

  /// Converged, or the round budget is exhausted.
  bool Done() const { return converged_ || iteration_ >= config_.max_iterations; }
  size_t iteration() const { return iteration_; }
  bool converged() const { return converged_; }

  IcaCheckpoint Snapshot() const;
  /// Reinstalls a Snapshot taken from a solver over the same graph/mask.
  /// kInvalidArgument, with the state untouched, on a shape mismatch (a
  /// node count or a distribution width other than this solver's graph's)
  /// and on any negative or non-finite entry, which a round would abort on.
  Status Restore(const IcaCheckpoint& checkpoint);

  /// The current estimates packaged as a CollectiveResult.
  CollectiveResult Finish() const;

 private:
  /// Marks the known rows of distributions_ that are one-hot, by value.
  void MarkKnownRows();

  const SocialGraph& g_;
  const std::vector<bool>& known_;
  CollectiveConfig config_;
  VoteLinks links_;  ///< fixed for the run: ICA never edits the graph
  LabelRows attribute_posterior_;
  /// Known rows are marked one-hot when they are; hidden rows never are.
  LabelRows distributions_;
  /// The round being written; swapped with distributions_ after each Step.
  /// Filled from distributions_ on the first Step after construction or
  /// Restore, empty until then.
  LabelRows next_;
  std::vector<double> node_change_;
  size_t iteration_ = 0;
  bool converged_ = false;
};

/// Iterative Classification Algorithm with a pluggable local classifier
/// (ICA-RST / ICA-Bayes / ICA-KNN, Algorithm 1):
///   1. train M_A on the attacker-visible labels,
///   2. bootstrap every unknown node from M_A,
///   3. repeat: re-estimate each unknown node as
///        α · P_A(y | attributes) + β · P_L(y | neighbor estimates)
///      until the estimates converge or max_iterations is hit.
/// `local` must be untrained or retrainable; Train is invoked inside.
/// Runs on an IcaSolver; rounds aborted by an injected fault are retried
/// in place (the solver's state survives), so the result under an armed
/// FaultPlan equals the fault-free result.
CollectiveResult CollectiveInference(const SocialGraph& g, const std::vector<bool>& known,
                                     AttributeClassifier& local,
                                     const CollectiveConfig& config = {});

}  // namespace ppdp::classify

#endif  // PPDP_CLASSIFY_COLLECTIVE_H_
