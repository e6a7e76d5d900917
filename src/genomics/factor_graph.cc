#include "genomics/factor_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>

#include "common/math_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::genomics {

size_t FactorGraph::AddVariable(size_t domain_size) {
  PPDP_CHECK(domain_size >= 2) << "variable needs at least two states";
  domains_.push_back(domain_size);
  evidence_.push_back(-1);
  first_slot_.push_back(kNoSlot);
  last_slot_.push_back(kNoSlot);
  return domains_.size() - 1;
}

size_t FactorGraph::AddFactor(std::vector<size_t> variables, std::vector<double> table) {
  PPDP_CHECK(!variables.empty()) << "factor needs at least one variable";
  size_t expected = 1;
  for (size_t v : variables) {
    PPDP_CHECK(v < domains_.size()) << "variable " << v << " out of range";
    expected *= domains_[v];
  }
  for (size_t i = 0; i < variables.size(); ++i) {
    for (size_t j = i + 1; j < variables.size(); ++j) {
      PPDP_CHECK(variables[i] != variables[j]) << "factor repeats variable " << variables[i];
    }
  }
  PPDP_CHECK(table.size() == expected)
      << "table has " << table.size() << " entries, expected " << expected;
  for (double v : table) PPDP_CHECK(v >= 0.0) << "negative factor entry " << v;

  const size_t first_slot = slot_variable_.size();
  size_t width = 0;
  for (size_t v : variables) {
    const size_t slot = slot_variable_.size();
    slot_variable_.push_back(v);
    slot_factor_.push_back(factors_.size());
    slot_offset_.push_back(slot_offset_.back() + domains_[v]);
    next_slot_.push_back(kNoSlot);
    if (first_slot_[v] == kNoSlot) {
      first_slot_[v] = slot;
    } else {
      next_slot_[last_slot_[v]] = slot;
    }
    last_slot_[v] = slot;
    width += domains_[v];
  }
  max_arity_ = std::max(max_arity_, variables.size());
  max_width_ = std::max(max_width_, width);
  factors_.push_back({std::move(variables), std::move(table), first_slot});
  return factors_.size() - 1;
}

void FactorGraph::SetEvidence(size_t variable, size_t value) {
  PPDP_CHECK(variable < domains_.size());
  PPDP_CHECK(value < domains_[variable]) << "evidence value out of domain";
  evidence_[variable] = static_cast<int64_t>(value);
}

void FactorGraph::ClearEvidence(size_t variable) {
  PPDP_CHECK(variable < domains_.size());
  evidence_[variable] = -1;
}

bool FactorGraph::HasEvidence(size_t variable) const {
  PPDP_CHECK(variable < domains_.size());
  return evidence_[variable] >= 0;
}

double FactorGraph::TableValue(const Factor& f, const std::vector<size_t>& assignment) const {
  size_t index = 0;
  for (size_t k = 0; k < f.variables.size(); ++k) {
    index = index * domains_[f.variables[k]] + assignment[k];
  }
  return f.table[index];
}

namespace {

/// A solve's start time for NoteSolve's DEBUG line: the clock is read only
/// while DEBUG is on.
double SolveStart() {
  return obs::LogEnabled(obs::LogLevel::kDebug) ? obs::MonotonicSeconds() : 0.0;
}

/// Books one solve: the `genomics.bp.runs` counter and a DEBUG line. Solves
/// are counted, not spanned: an incremental one takes microseconds, and its
/// time falls under the greedy's span.
void NoteSolve(double start_seconds, size_t iterations, bool converged, size_t variables,
               size_t factors) {
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter("genomics.bp.runs");
  runs.Increment();
  PPDP_LOG(DEBUG) << "BP finished" << obs::Field("iterations", iterations)
                  << obs::Field("converged", converged) << obs::Field("variables", variables)
                  << obs::Field("factors", factors)
                  << obs::Field("seconds", obs::MonotonicSeconds() - start_seconds);
}

}  // namespace

template <typename After>
void FactorGraph::RunMessagePassing(std::span<const size_t> factors, const BpOptions& options,
                                    bool max_product, Messages* messages, After&& after) const {
  static obs::Counter& iteration_count =
      obs::MetricsRegistry::Global().counter("genomics.bp.iterations");
  std::vector<double>& to_factor = messages->to_factor;
  std::vector<double>& to_variable = messages->to_variable;
  // Every to_factor slot is written before it is read; to_variable starts
  // uniform.
  to_factor.resize(slot_offset_.back());
  to_variable.resize(slot_offset_.back());
  for (size_t f : factors) {
    const Factor& factor = factors_[f];
    for (size_t s = factor.first_slot; s < factor.first_slot + factor.variables.size(); ++s) {
      const size_t d = domains_[slot_variable_[s]];
      std::fill_n(to_variable.begin() + static_cast<std::ptrdiff_t>(slot_offset_[s]), d,
                  1.0 / static_cast<double>(d));
    }
  }
  if (after(size_t{0}, std::numeric_limits<double>::infinity())) return;

  // Every factor update accumulates its outgoing messages in one work
  // row, sized for the widest factor.
  std::vector<size_t>& assignment = messages->assignment;
  std::vector<double>& fresh = messages->fresh;
  assignment.resize(max_arity_);
  fresh.resize(max_width_);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Variable -> factor: reads only the previous phase's to_variable (the
    // flooding schedule), multiplying the variable's other incoming messages
    // in factor order.
    for (size_t f : factors) {
      const Factor& factor = factors_[f];
      for (size_t s = factor.first_slot; s < factor.first_slot + factor.variables.size(); ++s) {
        const size_t v = slot_variable_[s];
        const size_t d = domains_[v];
        double* msg = to_factor.data() + slot_offset_[s];
        if (evidence_[v] >= 0) {
          std::fill_n(msg, d, 0.0);
          msg[static_cast<size_t>(evidence_[v])] = 1.0;
          continue;
        }
        std::fill_n(msg, d, 1.0);
        for (size_t other = first_slot_[v]; other != kNoSlot; other = next_slot_[other]) {
          if (other == s) continue;
          const double* in = to_variable.data() + slot_offset_[other];
          for (size_t x = 0; x < d; ++x) msg[x] *= in[x];
        }
        NormalizeInPlace(std::span<double>(msg, d));
      }
    }

    // Factor -> variable: one sweep over each joint table (row-major, last
    // argument fastest, so the table index counts up with the assignment)
    // accumulates every outgoing message.
    double max_change = 0.0;
    for (size_t f : factors) {
      const Factor& factor = factors_[f];
      const size_t arity = factor.variables.size();
      const size_t* offset = slot_offset_.data() + factor.first_slot;
      const size_t base = offset[0];
      const double* in = to_factor.data() + base;
      std::fill_n(fresh.begin(), offset[arity] - base, 0.0);
      std::fill_n(assignment.begin(), arity, size_t{0});
      for (size_t index = 0; index < factor.table.size(); ++index) {
        const double value = factor.table[index];
        if (value > 0.0) {
          for (size_t k = 0; k < arity; ++k) {
            double partial = value;
            for (size_t k2 = 0; k2 < arity; ++k2) {
              if (k2 == k) continue;
              partial *= in[offset[k2] - base + assignment[k2]];
            }
            double& out = fresh[offset[k] - base + assignment[k]];
            if (max_product) {
              out = std::max(out, partial);
            } else {
              out += partial;
            }
          }
        }
        for (size_t pos = arity; pos-- > 0;) {
          if (++assignment[pos] < domains_[factor.variables[pos]]) break;
          assignment[pos] = 0;
        }
      }
      double change = 0.0;
      for (size_t k = 0; k < arity; ++k) {
        const size_t d = offset[k + 1] - offset[k];
        const std::span<double> next(fresh.data() + (offset[k] - base), d);
        const std::span<double> previous(to_variable.data() + offset[k], d);
        NormalizeInPlace(next);
        if (options.damping > 0.0) {
          for (size_t x = 0; x < d; ++x) {
            next[x] = (1.0 - options.damping) * next[x] + options.damping * previous[x];
          }
          NormalizeInPlace(next);
        }
        change = std::max(change, L1Distance(next, previous));
        std::copy(next.begin(), next.end(), previous.begin());
      }
      max_change = std::max(max_change, change);
    }

    iteration_count.Increment();
    if (after(iter + 1, max_change)) return;
  }
}

std::vector<size_t> FactorGraph::AllFactors() const {
  std::vector<size_t> all(factors_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

FactorGraph::BpResult FactorGraph::RunBeliefPropagation() const {
  return RunBeliefPropagation(BpOptions());
}

FactorGraph::MapResult FactorGraph::RunMaxProduct() const { return RunMaxProduct(BpOptions()); }

FactorGraph::BpResult FactorGraph::RunBeliefPropagation(const BpOptions& options) const {
  std::vector<size_t> all(domains_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return RunBeliefPropagation(options, all);
}

FactorGraph::BpResult FactorGraph::RunBeliefPropagation(
    const BpOptions& options, const std::vector<size_t>& variables) const {
  for (size_t v : variables) PPDP_CHECK(v < domains_.size()) << "variable " << v << " out of range";
  obs::TraceSpan span(PPDP_SPAN_SITE("genomics.bp.sum_product"));
  const double start = SolveStart();
  Messages messages;
  BpResult result;
  RunMessagePassing(AllFactors(), options, /*max_product=*/false, &messages,
                    [&](size_t iteration, double change) {
                      result.iterations = iteration;
                      result.converged = change < options.tolerance;
                      return result.converged;
                    });
  result.marginals.reserve(variables.size());
  for (size_t v : variables) {
    result.marginals.emplace_back(domains_[v]);
    Belief(messages, v, result.marginals.back());
  }
  NoteSolve(start, result.iterations, result.converged, domains_.size(), factors_.size());
  return result;
}

FactorGraph::MapResult FactorGraph::RunMaxProduct(const BpOptions& options) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("genomics.bp.max_product"));
  const double start = SolveStart();
  Messages messages;
  MapResult result;
  RunMessagePassing(AllFactors(), options, /*max_product=*/true, &messages,
                    [&](size_t iteration, double change) {
                      result.iterations = iteration;
                      result.converged = change < options.tolerance;
                      return result.converged;
                    });
  result.assignment.resize(domains_.size());
  std::vector<double> belief;
  for (size_t v = 0; v < domains_.size(); ++v) {
    belief.resize(domains_[v]);
    Belief(messages, v, belief);
    result.assignment[v] = ArgMax(belief);
  }
  NoteSolve(start, result.iterations, result.converged, domains_.size(), factors_.size());
  return result;
}

void FactorGraph::Belief(const Messages& messages, size_t variable, std::span<double> out) const {
  if (evidence_[variable] >= 0) {
    std::fill(out.begin(), out.end(), 0.0);
    out[static_cast<size_t>(evidence_[variable])] = 1.0;
    return;
  }
  std::fill(out.begin(), out.end(), 1.0);
  for (size_t s = first_slot_[variable]; s != kNoSlot; s = next_slot_[s]) {
    const double* in = messages.to_variable.data() + slot_offset_[s];
    for (size_t x = 0; x < out.size(); ++x) out[x] *= in[x];
  }
  NormalizeInPlace(out);
}

std::vector<size_t> FactorGraph::ExactMap(size_t max_states) const {
  size_t states = 1;
  for (size_t d : domains_) {
    PPDP_CHECK(states <= max_states / d) << "joint space too large for exact MAP";
    states *= d;
  }
  std::vector<size_t> assignment(domains_.size(), 0);
  std::vector<size_t> best_assignment(domains_.size(), 0);
  double best_weight = -1.0;
  std::vector<size_t> local;
  for (size_t state = 0; state < states; ++state) {
    bool consistent = true;
    for (size_t v = 0; v < domains_.size() && consistent; ++v) {
      if (evidence_[v] >= 0 && assignment[v] != static_cast<size_t>(evidence_[v])) {
        consistent = false;
      }
    }
    if (consistent) {
      double weight = 1.0;
      for (const Factor& f : factors_) {
        local.clear();
        for (size_t v : f.variables) local.push_back(assignment[v]);
        weight *= TableValue(f, local);
        if (weight == 0.0) break;
      }
      if (weight > best_weight) {
        best_weight = weight;
        best_assignment = assignment;
      }
    }
    for (size_t v = domains_.size(); v > 0; --v) {
      if (++assignment[v - 1] < domains_[v - 1]) break;
      assignment[v - 1] = 0;
    }
  }
  PPDP_CHECK(best_weight > 0.0) << "all joint states have zero probability";
  return best_assignment;
}

std::vector<std::vector<double>> FactorGraph::ExactMarginals(size_t max_states) const {
  size_t states = 1;
  for (size_t d : domains_) {
    PPDP_CHECK(states <= max_states / d) << "joint space too large for exact enumeration";
    states *= d;
  }
  std::vector<std::vector<double>> marginals(domains_.size());
  for (size_t v = 0; v < domains_.size(); ++v) marginals[v].assign(domains_[v], 0.0);

  std::vector<size_t> assignment(domains_.size(), 0);
  double total = 0.0;
  for (size_t state = 0; state < states; ++state) {
    bool consistent = true;
    for (size_t v = 0; v < domains_.size() && consistent; ++v) {
      if (evidence_[v] >= 0 && assignment[v] != static_cast<size_t>(evidence_[v])) {
        consistent = false;
      }
    }
    if (consistent) {
      double weight = 1.0;
      std::vector<size_t> local;
      for (const Factor& f : factors_) {
        local.clear();
        for (size_t v : f.variables) local.push_back(assignment[v]);
        weight *= TableValue(f, local);
        if (weight == 0.0) break;
      }
      if (weight > 0.0) {
        total += weight;
        for (size_t v = 0; v < domains_.size(); ++v) marginals[v][assignment[v]] += weight;
      }
    }
    // Mixed-radix increment.
    for (size_t v = domains_.size(); v > 0; --v) {
      if (++assignment[v - 1] < domains_[v - 1]) break;
      assignment[v - 1] = 0;
    }
  }
  PPDP_CHECK(total > 0.0) << "all joint states have zero probability";
  for (auto& m : marginals) {
    for (double& p : m) p /= total;
  }
  return marginals;
}


IncrementalBp::IncrementalBp(FactorGraph* graph, const FactorGraph::BpOptions& options,
                             std::vector<size_t> read)
    : graph_(graph), options_(options), read_(std::move(read)) {
  PPDP_CHECK(graph_ != nullptr);
  for (size_t v : read_) {
    PPDP_CHECK(v < graph_->num_variables()) << "variable " << v << " out of range";
  }
  const double start = SolveStart();
  // Union-find over factors joined through unclamped variables.
  const FactorGraph& g = *graph_;
  std::vector<size_t> parent(g.num_factors());
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&](size_t f) {
    while (parent[f] != f) f = parent[f] = parent[parent[f]];
    return f;
  };
  for (size_t v = 0; v < g.num_variables(); ++v) {
    if (g.evidence_[v] >= 0) continue;
    for (size_t s = g.first_slot_[v]; s != FactorGraph::kNoSlot; s = g.next_slot_[s]) {
      parent[find(g.slot_factor_[s])] = find(g.slot_factor_[g.first_slot_[v]]);
    }
  }
  std::vector<size_t> index_of_root(g.num_factors(), kNone);
  for (size_t f = 0; f < g.num_factors(); ++f) {
    size_t& index = index_of_root[find(f)];
    if (index == kNone) {
      index = components_.size();
      components_.emplace_back();
    }
    components_[index].factors.push_back(f);
  }
  Reindex();
  for (Component& c : components_) SolveComponent(&c);
  RefreshCurrent();
  NoteSolve(start, current_.iterations, current_.converged, g.num_variables(), g.num_factors());
}

double IncrementalBp::ChangeAt(const Component& c, size_t iteration) {
  return iteration <= c.changes.size() ? c.changes[iteration - 1] : 0.0;
}

size_t IncrementalBp::ActiveAt(size_t iteration) const {
  if (iteration <= active_.size()) return active_[iteration - 1];
  // Past the longest cache every component has settled at a change of 0.0.
  return 0.0 < options_.tolerance ? 0 : components_.size();
}

bool IncrementalBp::RestConverged(size_t iteration) const {
  size_t active = ActiveAt(iteration);
  for (size_t c : merged_) {
    if (!(ChangeAt(components_[c], iteration) < options_.tolerance)) --active;
  }
  return active == 0;
}

std::pair<size_t, bool> IncrementalBp::StopFrom(size_t from) const {
  if (0.0 < options_.tolerance) {
    // Past the longest cache the rest stays as it is at its end.
    const size_t last = std::min(options_.max_iterations, std::max(from, active_.size() + 1));
    for (size_t i = from; i <= last; ++i) {
      if (RestConverged(i)) return {i, true};
    }
  }
  return {options_.max_iterations, false};
}

void IncrementalBp::CollectMerged(size_t variable) {
  const FactorGraph& g = *graph_;
  merged_.clear();
  for (size_t s = g.first_slot_[variable]; s != FactorGraph::kNoSlot; s = g.next_slot_[s]) {
    const size_t c = component_of_[g.slot_factor_[s]];
    if (std::find(merged_.begin(), merged_.end(), c) == merged_.end()) merged_.push_back(c);
  }
  std::sort(merged_.begin(), merged_.end());
  merged_factors_.clear();
  for (size_t c : merged_) {
    const std::vector<size_t>& factors = components_[c].factors;
    merged_factors_.insert(merged_factors_.end(), factors.begin(), factors.end());
  }
}

void IncrementalBp::SolveComponent(Component* c) {
  c->changes.clear();
  c->beliefs.clear();
  graph_->RunMessagePassing(
      c->factors, options_, /*max_product=*/false, &messages_,
      [&](size_t iteration, double change) {
        if (iteration > 0) c->changes.push_back(change);
        const size_t at = c->beliefs.size();
        c->beliefs.resize(at + c->row);
        for (size_t i : c->reads) {
          graph_->Belief(messages_, read_[i],
                         std::span<double>(c->beliefs.data() + at + read_offset_[i],
                                           graph_->domain(read_[i])));
        }
        return iteration > 0 && change == 0.0;
      });
}

void IncrementalBp::Reindex() {
  const FactorGraph& g = *graph_;
  component_of_.assign(g.num_factors(), kNone);
  for (size_t c = 0; c < components_.size(); ++c) {
    for (size_t f : components_[c].factors) component_of_[f] = c;
    components_[c].reads.clear();
    components_[c].row = 0;
  }
  read_component_.assign(read_.size(), kNone);
  read_offset_.assign(read_.size(), 0);
  for (size_t i = 0; i < read_.size(); ++i) {
    const size_t v = read_[i];
    if (g.evidence_[v] >= 0 || g.first_slot_[v] == FactorGraph::kNoSlot) continue;
    read_component_[i] = component_of_[g.slot_factor_[g.first_slot_[v]]];
    Component& c = components_[read_component_[i]];
    read_offset_[i] = c.row;
    c.row += g.domain(v);
    c.reads.push_back(i);
  }
}

void IncrementalBp::RefreshCurrent() {
  size_t longest = 0;
  for (const Component& c : components_) longest = std::max(longest, c.changes.size());
  active_.assign(longest, 0);
  for (const Component& c : components_) {
    for (size_t i = 1; i <= longest; ++i) {
      if (!(ChangeAt(c, i) < options_.tolerance)) ++active_[i - 1];
    }
  }
  merged_.clear();
  std::tie(current_.iterations, current_.converged) =
      options_.max_iterations == 0 ? std::pair<size_t, bool>{0, false} : StopFrom(1);
  ReadMarginals(current_.iterations, &current_);
}

void IncrementalBp::ReadMarginals(size_t iterations, FactorGraph::BpResult* result) {
  result->marginals.resize(read_.size());
  for (size_t i = 0; i < read_.size(); ++i) {
    std::vector<double>& marginal = result->marginals[i];
    marginal.resize(graph_->domain(read_[i]));
    const size_t c = read_component_[i];
    if (c == kNone || std::binary_search(merged_.begin(), merged_.end(), c)) {
      graph_->Belief(messages_, read_[i], marginal);
      continue;
    }
    const Component& component = components_[c];
    const double* row = component.beliefs.data() +
                        std::min(iterations, component.changes.size()) * component.row;
    std::copy_n(row + read_offset_[i], marginal.size(), marginal.begin());
  }
}

const FactorGraph::BpResult& IncrementalBp::SolveFreed(size_t variable) {
  PPDP_CHECK(variable < graph_->num_variables() && graph_->HasEvidence(variable))
      << "variable " << variable << " is not clamped";
  const double start = SolveStart();
  CollectMerged(variable);
  const int64_t value = graph_->evidence_[variable];
  graph_->evidence_[variable] = -1;
  freed_.converged = false;
  graph_->RunMessagePassing(
      merged_factors_, options_, /*max_product=*/false, &messages_,
      [&](size_t iteration, double change) {
        freed_.iterations = iteration;
        if (iteration == 0) return false;
        if (change == 0.0) {
          // Settled: every later iteration repeats these messages, so the
          // stop depends only on the other components.
          std::tie(freed_.iterations, freed_.converged) = StopFrom(iteration);
          return true;
        }
        freed_.converged = change < options_.tolerance && RestConverged(iteration);
        return freed_.converged;
      });
  ReadMarginals(freed_.iterations, &freed_);
  graph_->evidence_[variable] = value;
  NoteSolve(start, freed_.iterations, freed_.converged, graph_->num_variables(),
            merged_factors_.size());
  return freed_;
}

void IncrementalBp::Free(size_t variable) {
  PPDP_CHECK(variable < graph_->num_variables() && graph_->HasEvidence(variable))
      << "variable " << variable << " is not clamped";
  const double start = SolveStart();
  CollectMerged(variable);
  graph_->evidence_[variable] = -1;
  for (size_t k = merged_.size(); k-- > 0;) {
    components_.erase(components_.begin() + static_cast<std::ptrdiff_t>(merged_[k]));
  }
  const bool merges = !merged_factors_.empty();
  if (merges) {
    components_.emplace_back();
    components_.back().factors = merged_factors_;
  }
  Reindex();
  if (merges) SolveComponent(&components_.back());
  RefreshCurrent();
  NoteSolve(start, current_.iterations, current_.converged, graph_->num_variables(),
            merged_factors_.size());
}

}  // namespace ppdp::genomics
