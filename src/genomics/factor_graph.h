#ifndef PPDP_GENOMICS_FACTOR_GRAPH_H_
#define PPDP_GENOMICS_FACTOR_GRAPH_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace ppdp::genomics {

/// A generic discrete factor graph with loopy sum-product belief
/// propagation (Section 5.2.2 / 5.4). Variables have small categorical
/// domains (SNPs: 3, traits: 2); factors carry dense tables over the joint
/// domain of their arguments (row-major, last argument fastest).
///
/// Evidence clamps a variable to one value, implementing the known-SNP /
/// known-trait initialization of the message-passing iteration.
class FactorGraph {
 public:
  FactorGraph() = default;

  /// Adds a variable with `domain_size` states; returns its id.
  size_t AddVariable(size_t domain_size);

  /// Adds a factor over `variables` with `table` of size
  /// Π domain(variables[k]), row-major with the last variable fastest.
  /// Entries must be non-negative. Returns the factor id.
  size_t AddFactor(std::vector<size_t> variables, std::vector<double> table);

  /// Clamps `variable` to `value` (kept across runs until cleared).
  void SetEvidence(size_t variable, size_t value);
  void ClearEvidence(size_t variable);
  bool HasEvidence(size_t variable) const;

  size_t num_variables() const { return domains_.size(); }
  size_t num_factors() const { return factors_.size(); }
  size_t domain(size_t variable) const { return domains_.at(variable); }

  /// Loopy-BP options.
  struct BpOptions {
    size_t max_iterations = 50;
    double damping = 0.0;   ///< 0 = plain updates; 0.3-0.5 helps loopy graphs
    double tolerance = 1e-8;  ///< max message L1 change for convergence
  };

  /// Per-variable marginals after message passing.
  struct BpResult {
    std::vector<std::vector<double>> marginals;
    size_t iterations = 0;
    bool converged = false;
  };

  /// Runs flooding-schedule sum-product BP. Exact on trees; approximate on
  /// loopy graphs (the chapter-5 graphs are near-trees).
  BpResult RunBeliefPropagation(const BpOptions& options) const;
  BpResult RunBeliefPropagation() const;

  /// The same run, reporting only the marginals of `variables`
  /// (`marginals[i]` belongs to `variables[i]`), bit-identical to the full
  /// run's. For callers that re-solve one graph under changing evidence and
  /// read a few variables, like the GPUT greedy.
  BpResult RunBeliefPropagation(const BpOptions& options,
                                const std::vector<size_t>& variables) const;

  /// Exact marginals by exhaustive enumeration, for validating BP on small
  /// graphs. Dies if the joint state space exceeds `max_states`.
  std::vector<std::vector<double>> ExactMarginals(size_t max_states = 1u << 20) const;

  /// Max-product (MAP) message passing: returns the (approximately) most
  /// likely joint assignment — the "reconstruction" flavor of the chapter-5
  /// attack, which names a single genome rather than per-locus marginals.
  /// Exact on trees; approximate on loopy graphs. Evidence is respected.
  struct MapResult {
    std::vector<size_t> assignment;  ///< one state per variable
    size_t iterations = 0;
    bool converged = false;
  };
  MapResult RunMaxProduct(const BpOptions& options) const;
  MapResult RunMaxProduct() const;

  /// Exact MAP by exhaustive enumeration (ties break toward the
  /// lexicographically smaller assignment). Same state-space guard as
  /// ExactMarginals.
  std::vector<size_t> ExactMap(size_t max_states = 1u << 20) const;

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// A factor's argument k sends and receives its messages on slot
  /// `first_slot + k`; slots are numbered in factor order.
  struct Factor {
    std::vector<size_t> variables;
    std::vector<double> table;
    size_t first_slot = 0;
  };

  /// One run's messages, flat: slot s occupies
  /// [slot_offset_[s], slot_offset_[s + 1]) of each buffer.
  struct Messages {
    std::vector<double> to_factor;
    std::vector<double> to_variable;
    size_t iterations = 0;
    bool converged = false;
  };

  /// Runs the flooding schedule; `max_product` swaps the factor-side sum
  /// for a max.
  Messages RunMessagePassing(const BpOptions& options, bool max_product) const;

  /// Belief of `variable`: the product of its incoming messages (one-hot
  /// under evidence), normalized.
  std::vector<double> Belief(const Messages& messages, size_t variable) const;

  double TableValue(const Factor& f, const std::vector<size_t>& assignment) const;

  std::vector<size_t> domains_;
  std::vector<int64_t> evidence_;  ///< -1 = free
  std::vector<Factor> factors_;
  // Flat message layout, extended by AddFactor.
  std::vector<size_t> slot_variable_;
  std::vector<size_t> slot_offset_ = {0};  ///< num slots + 1 entries
  // Each variable's slots as a list threaded through `next_slot_`, in
  // factor order: the order in which incoming messages are multiplied.
  std::vector<size_t> first_slot_;  ///< per variable; kNoSlot = no factor
  std::vector<size_t> last_slot_;   ///< per variable
  std::vector<size_t> next_slot_;   ///< per slot; kNoSlot = end of list
  size_t max_arity_ = 0;
  size_t max_width_ = 0;  ///< max over factors of the sum of argument domains
};

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_FACTOR_GRAPH_H_
