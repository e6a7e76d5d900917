#ifndef PPDP_GENOMICS_FACTOR_GRAPH_H_
#define PPDP_GENOMICS_FACTOR_GRAPH_H_

#include <cstddef>
#include <span>
#include <utility>
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
  /// run's.
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
  friend class IncrementalBp;

  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// A factor's argument k sends and receives its messages on slot
  /// `first_slot + k`; slots are numbered in factor order.
  struct Factor {
    std::vector<size_t> variables;
    std::vector<double> table;
    size_t first_slot = 0;
  };

  /// Message buffers, flat over every slot of the graph: slot s occupies
  /// [slot_offset_[s], slot_offset_[s + 1]) of each. A run touches only its
  /// factors' slots, so one set serves runs over different factor subsets.
  struct Messages {
    std::vector<double> to_factor;
    std::vector<double> to_variable;
    std::vector<size_t> assignment;  ///< work buffer: one factor's joint state
    std::vector<double> fresh;       ///< work buffer: one factor's outgoing messages
  };

  /// The one message-passing kernel: the flooding schedule over `factors`,
  /// from uniform messages. `max_product` swaps the factor-side sum for a
  /// max. Calls `after(0, +inf)` once the messages are initialised and
  /// `after(i, max_change)` after iteration i; stops when `after` returns
  /// true or after `max_iterations` iterations. The order of `factors` does
  /// not matter: a factor update reads only variable-to-factor messages and
  /// writes only its own slots. A component of the graph under the current
  /// evidence (factors joined through unclamped variables) evolves the same
  /// bits whichever other factors share the run, so a run over all factors
  /// is the whole-graph solve and a run over one component is that
  /// component's share of it.
  template <typename After>
  void RunMessagePassing(std::span<const size_t> factors, const BpOptions& options,
                         bool max_product, Messages* messages, After&& after) const;

  /// All factor ids, ascending.
  std::vector<size_t> AllFactors() const;

  /// Writes the belief of `variable` (the product of its incoming messages,
  /// one-hot under evidence, normalized) to `out`.
  void Belief(const Messages& messages, size_t variable, std::span<double> out) const;

  double TableValue(const Factor& f, const std::vector<size_t>& assignment) const;

  std::vector<size_t> domains_;
  std::vector<int64_t> evidence_;  ///< -1 = free
  std::vector<Factor> factors_;
  // Flat message layout, extended by AddFactor.
  std::vector<size_t> slot_variable_;
  std::vector<size_t> slot_factor_;
  std::vector<size_t> slot_offset_ = {0};  ///< num slots + 1 entries
  // Each variable's slots as a list threaded through `next_slot_`, in
  // factor order: the order in which incoming messages are multiplied.
  std::vector<size_t> first_slot_;  ///< per variable; kNoSlot = no factor
  std::vector<size_t> last_slot_;   ///< per variable
  std::vector<size_t> next_slot_;   ///< per slot; kNoSlot = end of list
  size_t max_arity_ = 0;
  size_t max_width_ = 0;  ///< max over factors of the sum of argument domains
};

/// Exact incremental sum-product BP for searches that unclamp one clamped
/// variable at a time and read a few variables, like the Ch.5 greedy.
///
/// Evidence splits the graph into components: sets of factors joined
/// through unclamped variables (a clamped variable sends a constant one-hot
/// message, so it joins nothing). Each component is solved alone, and its
/// per-iteration max change and the per-iteration beliefs of the read
/// variables it holds are kept until that change is exactly 0.0 (from then
/// on its messages repeat) or `max_iterations` is reached. A candidate
/// solve runs the flooding schedule only on the component its freed
/// variable merges and stops at the first iteration where that run's change
/// and every other component's change at that iteration are below
/// `tolerance`: the whole-graph rule. Read variables elsewhere come from
/// the cache at that iteration. Every result is bit-identical to
/// `RunBeliefPropagation(options, read)` on the whole graph under the same
/// evidence. Each solve (the constructor, `SolveFreed`, `Free`) counts one
/// `genomics.bp.runs` and opens no span: its caller's span holds its time.
class IncrementalBp {
 public:
  /// Solves `graph` under its current evidence. The graph must outlive this
  /// object, and its evidence may change only through `Free`.
  IncrementalBp(FactorGraph* graph, const FactorGraph::BpOptions& options,
                std::vector<size_t> read);

  /// The whole-graph result under the current evidence; `marginals[i]`
  /// belongs to `read[i]`.
  const FactorGraph::BpResult& current() const { return current_; }

  /// The whole-graph result with the clamped `variable` unclamped. The
  /// evidence is left as it was; the result lives until the next call.
  const FactorGraph::BpResult& SolveFreed(size_t variable);

  /// Unclamps the clamped `variable` for good and re-solves the component
  /// it merges.
  void Free(size_t variable);

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Component {
    std::vector<size_t> factors;
    std::vector<double> changes;  ///< changes[i]: max change of iteration i + 1
    std::vector<size_t> reads;    ///< indices into read_
    size_t row = 0;               ///< sum of the reads' domains
    /// Row i (i = 0 .. changes.size()): the reads' beliefs after iteration i.
    std::vector<double> beliefs;
  };

  /// Max change of `c` at iteration `iteration` (>= 1); 0.0 once settled.
  static double ChangeAt(const Component& c, size_t iteration);
  /// Components whose change at `iteration` is not below tolerance.
  size_t ActiveAt(size_t iteration) const;
  /// Whether every component outside merged_ is below tolerance at
  /// `iteration`.
  bool RestConverged(size_t iteration) const;
  /// The whole-graph stop (iterations, converged) when merged_'s messages
  /// repeat from iteration `from` on: the first iteration from there where
  /// the rest has converged, else max_iterations.
  std::pair<size_t, bool> StopFrom(size_t from) const;

  /// Fills merged_ with the components holding `variable`'s factors
  /// (ascending) and merged_factors_ with their factors.
  void CollectMerged(size_t variable);
  /// Solves `c`'s factors alone, filling its changes and beliefs.
  void SolveComponent(Component* c);
  /// Recomputes component_of_ and every component's reads.
  void Reindex();
  /// Recomputes active_ and current_ from the cache.
  void RefreshCurrent();
  /// Fills `result`'s marginals for a whole-graph stop at `iterations`:
  /// reads in merged_ or in no component from messages_, others from the
  /// cache.
  void ReadMarginals(size_t iterations, FactorGraph::BpResult* result);

  FactorGraph* graph_;
  FactorGraph::BpOptions options_;
  std::vector<size_t> read_;
  std::vector<Component> components_;
  std::vector<size_t> component_of_;    ///< per factor
  std::vector<size_t> read_component_;  ///< per read; kNone if clamped or factorless
  std::vector<size_t> read_offset_;     ///< per read: offset in its component's row
  std::vector<size_t> active_;          ///< active_[i] = ActiveAt(i + 1), up to the longest cache
  std::vector<size_t> merged_;          ///< CollectMerged's output
  std::vector<size_t> merged_factors_;
  FactorGraph::Messages messages_;      ///< reused by every run
  FactorGraph::BpResult current_;
  FactorGraph::BpResult freed_;
};

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_FACTOR_GRAPH_H_
