#ifndef PPDP_CLASSIFY_GIBBS_H_
#define PPDP_CLASSIFY_GIBBS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "classify/collective.h"
#include "classify/relational.h"
#include "common/rng.h"

namespace ppdp::classify {

/// Parameters of the Gibbs-sampling collective classifier (the second
/// collective-classification algorithm Section 3.4 names alongside ICA).
struct GibbsConfig {
  double alpha = 0.5;        ///< attribute-posterior weight, as in Eq. 3.5
  double beta = 0.5;         ///< link-vote weight
  size_t burn_in = 20;       ///< sweeps discarded before collecting
  size_t samples = 80;       ///< sweeps averaged into the output beliefs (per chain)
  size_t chains = 1;         ///< independent chains pooled into the beliefs
  uint64_t seed = 1;
  int threads = 0;           ///< exec convention: 0 = all cores, 1 = serial

  /// Rejects invalid α/β (see CollectiveConfig), zero samples or chains,
  /// and a negative thread count.
  Status Validate() const;
};

/// Serializable mid-run state of one Gibbs chain: hard-label state,
/// post-burn-in tallies, sweep position and the chain's exact RNG stream
/// position (Rng::SaveState). Restoring it resumes the chain's deviate
/// sequence precisely where it stopped, which is what makes an
/// interrupted-and-resumed run byte-identical to an uninterrupted one.
struct GibbsChainCheckpoint {
  size_t chain = 0;
  size_t sweeps_done = 0;
  std::vector<graph::Label> state;
  std::vector<std::vector<double>> tallies;  ///< [node][label]
  std::string rng_state;
};

/// Checkpointable multi-chain Gibbs engine behind GibbsCollectiveInference.
/// Construction trains the local classifier, caches attribute posteriors
/// and samples every chain's initial state; Run() then advances all
/// unfinished chains to their sweep budget, in parallel under
/// config.threads with the usual per-chain Split streams (results are
/// byte-identical at every thread count).
///
/// Fault model: each sweep first evaluates the "classify.gibbs.sweep"
/// failure point; a fired drop interrupts that chain *between* sweeps
/// (sweeps are atomic), Run() returns kUnavailable, and the sampler can
/// either Run() again (retry in place) or be Snapshot()-ed, destroyed,
/// and later Restore()-d in a fresh sampler — both continuations finish
/// with byte-identical pooled beliefs.
///
/// `g`, `known` and `local` are borrowed and must outlive the sampler.
class GibbsSampler {
 public:
  GibbsSampler(const SocialGraph& g, const std::vector<bool>& known, AttributeClassifier& local,
               const GibbsConfig& config = {});

  /// Advances every unfinished chain toward burn_in + samples sweeps.
  /// OK when all chains finished; kUnavailable when injected faults
  /// interrupted at least one chain (partial progress is retained).
  Status Run();

  bool Finished() const;
  /// Sweeps completed by chain `chain`.
  size_t SweepsDone(size_t chain) const;

  /// One checkpoint per chain, in chain order.
  std::vector<GibbsChainCheckpoint> Snapshot() const;
  /// Reinstalls checkpoints taken from a sampler with the same graph,
  /// mask and config. kInvalidArgument on shape mismatch.
  Status Restore(const std::vector<GibbsChainCheckpoint>& checkpoints);

  /// Pools the chains' post-burn-in tallies into per-node distributions
  /// (chain-order fold; PPDP_CHECKs Finished()).
  CollectiveResult Collect() const;

 private:
  struct Chain {
    size_t index = 0;
    size_t sweeps_done = 0;
    std::vector<graph::Label> state;
    std::vector<std::vector<double>> tallies;
    Rng rng;
    explicit Chain(Rng r) : rng(std::move(r)) {}
  };

  /// One single-site sweep over all unknown nodes (+ tally when past
  /// burn-in). The unit of atomicity for checkpoints and faults.
  void SweepChain(Chain& chain);

  const SocialGraph& g_;
  const std::vector<bool>& known_;
  GibbsConfig config_;
  size_t labels_ = 0;
  size_t total_sweeps_ = 0;
  LinkWeightRows weights_;  ///< fixed for the run: sampling never edits the graph
  std::vector<LabelDistribution> attribute_posterior_;
  std::vector<Chain> chains_;
};

/// Gibbs-sampling collective inference: unknown labels are initialized by
/// sampling from the local classifier's posterior, then resampled
/// node-by-node from the α/β mixture of the (fixed) attribute posterior and
/// the weighted vote of the neighbors' *current hard labels*. After burn-in,
/// per-node label frequencies across sweeps become the output distributions.
///
/// Compared with ICA (collective.h) this explores the joint label space
/// stochastically instead of propagating soft beliefs — the classic
/// trade-off the collective-classification literature the chapter cites
/// studies. `local` is trained inside.
///
/// With chains > 1 the procedure runs that many independent chains — chain
/// c derives its randomness as Rng(seed).Split(c), so each chain's stream
/// is index-addressed rather than shared — and pools their post-burn-in
/// tallies. Chains execute in parallel under `threads`; because streams are
/// per-chain and the pool fold is in chain order, the output is
/// byte-identical at every thread count.
CollectiveResult GibbsCollectiveInference(const SocialGraph& g, const std::vector<bool>& known,
                                          AttributeClassifier& local,
                                          const GibbsConfig& config = {});

}  // namespace ppdp::classify

#endif  // PPDP_CLASSIFY_GIBBS_H_
