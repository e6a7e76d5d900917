#include "classify/gibbs.h"

#include <cmath>
#include <cstdint>
#include <span>

#include "classify/relational.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "exec/parallel.h"
#include "fault/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::classify {

Status GibbsConfig::Validate() const {
  if (!(std::isfinite(alpha) && std::isfinite(beta)) || alpha < 0.0 || beta < 0.0) {
    return Status::InvalidArgument("alpha and beta must be finite and non-negative");
  }
  if (alpha + beta <= 0.0) {
    return Status::InvalidArgument("alpha + beta must be positive");
  }
  if (samples == 0) return Status::InvalidArgument("samples must be >= 1");
  if (chains == 0) return Status::InvalidArgument("chains must be >= 1");
  return exec::ExecConfig{threads}.Validate();
}

GibbsSampler::GibbsSampler(const SocialGraph& g, const std::vector<bool>& known,
                           AttributeClassifier& local, const GibbsConfig& config)
    : g_(g), known_(known), config_(config) {
  PPDP_CHECK(known_.size() == g_.num_nodes());
  Status valid = config_.Validate();
  PPDP_CHECK(valid.ok()) << valid.ToString();
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter("classify.gibbs.runs");
  runs.Increment();

  local.Train(g_, known_);
  labels_ = static_cast<size_t>(g_.num_labels());
  weights_ = LinkWeightRows(g_, known_, config_.threads);
  total_sweeps_ = config_.burn_in + config_.samples;

  // Fixed attribute posteriors, shared read-only by every chain.
  attribute_posterior_.resize(g_.num_nodes());
  exec::ParallelFor(
      0, g_.num_nodes(), /*grain=*/64,
      [&](size_t u) {
        if (!known_[u]) attribute_posterior_[u] = local.Predict(g_, static_cast<NodeId>(u));
      },
      exec::ExecConfig{config_.threads});

  // One chain = the classic single-site sweep with its own hard-label state
  // and its own index-addressed RNG stream. Chains never share mutable
  // state, so running them concurrently cannot change any chain's result.
  const Rng root(config_.seed);
  chains_.reserve(config_.chains);
  for (size_t c = 0; c < config_.chains; ++c) {
    chains_.emplace_back(root.Split(c));
    Chain& chain = chains_.back();
    chain.index = c;
    chain.tallies.assign(g_.num_nodes(), std::vector<double>(labels_, 0.0));
    chain.state.assign(g_.num_nodes(), 0);
    for (NodeId u = 0; u < g_.num_nodes(); ++u) {
      if (known_[u]) {
        graph::Label y = g_.GetLabel(u);
        PPDP_CHECK(y != graph::kUnknownLabel) << "known node " << u << " has no label";
        chain.state[u] = y;
      } else {
        chain.state[u] = static_cast<graph::Label>(chain.rng.Categorical(attribute_posterior_[u]));
      }
    }
  }
}

void GibbsSampler::SweepChain(Chain& chain) {
  static obs::Counter& sweeps = obs::MetricsRegistry::Global().counter("classify.gibbs.sweeps");
  const double norm = config_.alpha + config_.beta;

  // Weighted hard-label vote of u's neighborhood under the current state.
  auto link_vote = [&](NodeId u) {
    LabelDistribution vote(labels_, 0.0);
    double total = 0.0;
    const auto& neighbors = g_.Neighbors(u);
    const std::span<const double> row = weights_[u];
    for (size_t j = 0; j < neighbors.size(); ++j) {
      const double w = row[j];
      if (w <= 0.0) continue;
      total += w;
      vote[static_cast<size_t>(chain.state[neighbors[j]])] += w;
    }
    if (total <= 0.0) return LabelDistribution(labels_, 1.0 / static_cast<double>(labels_));
    for (double& p : vote) p /= total;
    return vote;
  };

  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    if (known_[u]) continue;
    LabelDistribution vote = link_vote(u);
    LabelDistribution conditional(labels_);
    for (size_t y = 0; y < labels_; ++y) {
      conditional[y] =
          (config_.alpha * attribute_posterior_[u][y] + config_.beta * vote[y]) / norm;
    }
    chain.state[u] = static_cast<graph::Label>(chain.rng.Categorical(conditional));
  }
  if (chain.sweeps_done >= config_.burn_in) {
    for (NodeId u = 0; u < g_.num_nodes(); ++u) {
      chain.tallies[u][static_cast<size_t>(chain.state[u])] += 1.0;
    }
  }
  ++chain.sweeps_done;
  sweeps.Increment();
}

Status GibbsSampler::Run() {
  static obs::Histogram& chain_seconds =
      obs::MetricsRegistry::Global().histogram("classify.gibbs.chain_seconds");
  std::vector<uint8_t> interrupted(chains_.size(), 0);
  exec::ParallelFor(
      0, chains_.size(), /*grain=*/1,
      [&](size_t c) {
        Chain& chain = chains_[c];
        if (chain.sweeps_done >= total_sweeps_) return;
        double chain_start = obs::MonotonicSeconds();
        while (chain.sweeps_done < total_sweeps_) {
          // Faults interrupt *between* sweeps: the sweep is the atomic
          // unit, so an interrupted chain is always checkpoint-consistent.
          fault::FaultDecision fault_decision =
              PPDP_FAULT_POINT("classify.gibbs.sweep", fault::kMaskDrop);
          if (fault_decision.drop()) {
            interrupted[c] = 1;
            break;
          }
          SweepChain(chain);
        }
        chain_seconds.Observe(obs::MonotonicSeconds() - chain_start);
      },
      exec::ExecConfig{config_.threads});
  size_t num_interrupted = 0;
  for (uint8_t i : interrupted) num_interrupted += i;
  if (num_interrupted > 0) {
    return Status::Unavailable("injected fault interrupted " + std::to_string(num_interrupted) +
                               " Gibbs chain(s); progress retained");
  }
  return Status::Ok();
}

bool GibbsSampler::Finished() const {
  for (const Chain& chain : chains_) {
    if (chain.sweeps_done < total_sweeps_) return false;
  }
  return true;
}

size_t GibbsSampler::SweepsDone(size_t chain) const {
  PPDP_CHECK(chain < chains_.size());
  return chains_[chain].sweeps_done;
}

std::vector<GibbsChainCheckpoint> GibbsSampler::Snapshot() const {
  std::vector<GibbsChainCheckpoint> checkpoints;
  checkpoints.reserve(chains_.size());
  for (const Chain& chain : chains_) {
    GibbsChainCheckpoint checkpoint;
    checkpoint.chain = chain.index;
    checkpoint.sweeps_done = chain.sweeps_done;
    checkpoint.state = chain.state;
    checkpoint.tallies = chain.tallies;
    checkpoint.rng_state = chain.rng.SaveState();
    checkpoints.push_back(std::move(checkpoint));
  }
  return checkpoints;
}

Status GibbsSampler::Restore(const std::vector<GibbsChainCheckpoint>& checkpoints) {
  if (checkpoints.size() != chains_.size()) {
    return Status::InvalidArgument("Gibbs checkpoint chain count mismatch");
  }
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    const GibbsChainCheckpoint& checkpoint = checkpoints[c];
    if (checkpoint.chain != c || checkpoint.state.size() != g_.num_nodes() ||
        checkpoint.tallies.size() != g_.num_nodes() || checkpoint.sweeps_done > total_sweeps_) {
      return Status::InvalidArgument("Gibbs checkpoint shape mismatch at chain " +
                                     std::to_string(c));
    }
  }
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    const GibbsChainCheckpoint& checkpoint = checkpoints[c];
    PPDP_RETURN_IF_ERROR(
        chains_[c].rng.LoadState(checkpoint.rng_state).Annotate("GibbsSampler::Restore"));
    chains_[c].sweeps_done = checkpoint.sweeps_done;
    chains_[c].state = checkpoint.state;
    chains_[c].tallies = checkpoint.tallies;
  }
  return Status::Ok();
}

CollectiveResult GibbsSampler::Collect() const {
  PPDP_CHECK(Finished()) << "Collect() before every chain finished its sweeps";
  // Pool the chains in chain order (deterministic fold).
  std::vector<std::vector<double>> tallies(g_.num_nodes(), std::vector<double>(labels_, 0.0));
  for (const Chain& chain : chains_) {
    for (NodeId u = 0; u < g_.num_nodes(); ++u) {
      for (size_t y = 0; y < labels_; ++y) tallies[u][y] += chain.tallies[u][y];
    }
  }
  CollectiveResult result;
  result.iterations = total_sweeps_;
  result.converged = true;  // fixed-length chains by construction
  result.distributions.resize(g_.num_nodes());
  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    if (known_[u]) {
      result.distributions[u].assign(labels_, 0.0);
      result.distributions[u][static_cast<size_t>(g_.GetLabel(u))] = 1.0;
    } else {
      result.distributions[u] = Normalized(tallies[u]);
    }
  }
  return result;
}

CollectiveResult GibbsCollectiveInference(const SocialGraph& g, const std::vector<bool>& known,
                                          AttributeClassifier& local,
                                          const GibbsConfig& config) {
  obs::TraceSpan span(PPDP_SPAN_SITE("classify.gibbs"));
  GibbsSampler sampler(g, known, local, config);
  auto total_done = [&] {
    size_t done = 0;
    for (size_t c = 0; c < config.chains; ++c) done += sampler.SweepsDone(c);
    return done;
  };
  // Interrupted chains keep their progress; re-running resumes them in
  // place. Only *stalled* re-runs (zero sweeps advanced) count toward the
  // cap, which turns a rate-1.0 plan into a loud failure instead of a hang.
  size_t stalled_runs = 0;
  size_t last_progress = total_done();
  while (!sampler.Finished()) {
    Status ran = sampler.Run();
    size_t done = total_done();
    if (done > last_progress) {
      last_progress = done;
      stalled_runs = 0;
    } else {
      PPDP_CHECK(++stalled_runs < 100)
          << "Gibbs made no progress across " << stalled_runs << " runs: " << ran.ToString();
    }
  }
  PPDP_LOG(DEBUG) << "Gibbs chains finished" << obs::Field("chains", config.chains)
                  << obs::Field("sweeps_per_chain", config.burn_in + config.samples)
                  << obs::Field("burn_in", config.burn_in) << obs::Field("nodes", g.num_nodes())
                  << obs::Field("seconds", span.ElapsedSeconds());
  return sampler.Collect();
}

}  // namespace ppdp::classify
