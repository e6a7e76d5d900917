#include "genomics/factor_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

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
  Messages messages = RunMessagePassing(options, /*max_product=*/false);
  BpResult result;
  result.iterations = messages.iterations;
  result.converged = messages.converged;
  result.marginals.reserve(variables.size());
  for (size_t v : variables) result.marginals.push_back(Belief(messages, v));
  return result;
}

FactorGraph::MapResult FactorGraph::RunMaxProduct(const BpOptions& options) const {
  Messages messages = RunMessagePassing(options, /*max_product=*/true);
  MapResult result;
  result.iterations = messages.iterations;
  result.converged = messages.converged;
  result.assignment.resize(domains_.size());
  for (size_t v = 0; v < domains_.size(); ++v) result.assignment[v] = ArgMax(Belief(messages, v));
  return result;
}

FactorGraph::Messages FactorGraph::RunMessagePassing(const BpOptions& options,
                                                     bool max_product) const {
  obs::TraceSpan span(max_product ? "genomics.bp.max_product" : "genomics.bp.sum_product");
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter("genomics.bp.runs");
  static obs::Counter& iteration_count =
      obs::MetricsRegistry::Global().counter("genomics.bp.iterations");
  runs.Increment();
  const size_t num_slots = slot_variable_.size();
  Messages messages;
  std::vector<double>& to_factor = messages.to_factor;
  std::vector<double>& to_variable = messages.to_variable;
  // Every to_factor slot is written before it is read; to_variable starts
  // uniform.
  to_factor.assign(slot_offset_.back(), 0.0);
  to_variable.resize(slot_offset_.back());
  for (size_t s = 0; s < num_slots; ++s) {
    const size_t d = domains_[slot_variable_[s]];
    std::fill_n(to_variable.begin() + static_cast<std::ptrdiff_t>(slot_offset_[s]), d,
                1.0 / static_cast<double>(d));
  }

  // Every factor update accumulates its outgoing messages in one scratch
  // row, sized once per run for the widest factor.
  std::vector<size_t> assignment(max_arity_);
  std::vector<double> fresh(max_width_);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Variable -> factor: reads only the previous phase's to_variable (the
    // flooding schedule), multiplying the variable's other incoming messages
    // in factor order.
    for (size_t s = 0; s < num_slots; ++s) {
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

    // Factor -> variable: one sweep over each joint table (row-major, last
    // argument fastest, so the table index counts up with the assignment)
    // accumulates every outgoing message.
    double max_change = 0.0;
    for (const Factor& factor : factors_) {
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

    messages.iterations = iter + 1;
    iteration_count.Increment();
    if (max_change < options.tolerance) {
      messages.converged = true;
      break;
    }
  }
  PPDP_LOG(DEBUG) << "BP finished" << obs::Field("iterations", messages.iterations)
                  << obs::Field("converged", messages.converged)
                  << obs::Field("variables", domains_.size())
                  << obs::Field("factors", factors_.size())
                  << obs::Field("seconds", span.ElapsedSeconds());
  return messages;
}

std::vector<double> FactorGraph::Belief(const Messages& messages, size_t variable) const {
  const size_t d = domains_[variable];
  if (evidence_[variable] >= 0) {
    std::vector<double> one_hot(d, 0.0);
    one_hot[static_cast<size_t>(evidence_[variable])] = 1.0;
    return one_hot;
  }
  std::vector<double> belief(d, 1.0);
  for (size_t s = first_slot_[variable]; s != kNoSlot; s = next_slot_[s]) {
    const double* in = messages.to_variable.data() + slot_offset_[s];
    for (size_t x = 0; x < d; ++x) belief[x] *= in[x];
  }
  NormalizeInPlace(belief);
  return belief;
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

}  // namespace ppdp::genomics
