#ifndef PPDP_DP_SYNTHESIZER_H_
#define PPDP_DP_SYNTHESIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "obs/ledger.h"

namespace ppdp::dp {

/// A categorical dataset: rows of values in [0, domain) — e.g. genotype
/// panels with domain 3.
using CategoricalRow = std::vector<int8_t>;
using CategoricalData = std::vector<CategoricalRow>;

/// Configuration of the private synthesizer.
struct SynthesizerConfig {
  double epsilon = 1.0;             ///< total privacy budget
  double structure_fraction = 0.3;  ///< share of ε spent selecting the structure
  int8_t domain = 3;                ///< values per attribute
  size_t max_parents = 1;           ///< parents per attribute (1 = tree; 2 = PrivBayes k=2)
  uint64_t seed = 1;                ///< structure-selection randomness
  int threads = 0;                  ///< exec convention: 0 = all cores, 1 = serial

  /// Rejects ε <= 0 (or non-finite), structure_fraction outside [0, 1),
  /// domain < 2, max_parents < 1, and negative thread counts. Fit calls
  /// this at entry and surfaces the failure as its Result's Status.
  Status Validate() const;
};

/// The dissertation's high-dimensional DP publishing methodology
/// (Abstract / Section 6.2): approximate the joint distribution of the
/// original data with well-chosen low-dimensional (pairwise) distributions,
/// inject calibrated noise into those, and sample synthetic records from the
/// approximation — a PrivBayes/Chow-Liu-style synthesizer restricted to one
/// parent per attribute.
///
/// Privacy: structure selection uses the exponential mechanism over mutual
/// information scores (ε_1 = structure_fraction · ε, sensitivity bounded by
/// the standard log(n)/n MI bound); each attribute's (parent-conditional)
/// count table is released through the Laplace mechanism with the remaining
/// ε_2 (sensitivity 2 per table under add/remove-one adjacency, budget split
/// evenly across attributes by parallel composition over disjoint count
/// contributions... sequential across the per-attribute tables). Sampling
/// from the released noisy model costs no additional budget
/// (post-processing).
class PrivateSynthesizer {
 public:
  /// Fits the model on `data` (all rows same width, values in [0, domain)).
  /// Fails on empty data or invalid configuration. Budget accounting runs
  /// against an internal PrivacyLedger sized to config.epsilon.
  static Result<PrivateSynthesizer> Fit(const CategoricalData& data,
                                        const SynthesizerConfig& config);

  /// Same, but every mechanism invocation is spent through `ledger` (labels
  /// prefixed with `label_prefix`): structure selection as exponential-
  /// mechanism spends, per-attribute count tables as Laplace spends. Fails
  /// with the ledger's non-OK Status — instead of silently over-spending —
  /// when the budget cannot cover the fit. A null ledger falls back to the
  /// internal one.
  static Result<PrivateSynthesizer> Fit(const CategoricalData& data,
                                        const SynthesizerConfig& config,
                                        obs::PrivacyLedger* ledger,
                                        const std::string& label_prefix = "");

  /// Draws `count` synthetic rows by ancestral sampling (pure
  /// post-processing: spends no privacy budget).
  CategoricalData Sample(size_t count, Rng& rng) const;

  /// parent()[j] is attribute j's *first* parent, or -1 for roots — the
  /// tree view (exact when max_parents == 1).
  const std::vector<int>& parent() const { return parent_; }
  /// parents()[j] lists all of attribute j's parents (earlier attributes).
  const std::vector<std::vector<size_t>>& parents() const { return parents_; }
  double epsilon() const { return config_.epsilon; }
  size_t num_attributes() const { return parent_.size(); }

 private:
  PrivateSynthesizer() = default;

  SynthesizerConfig config_;
  std::vector<int> parent_;                   ///< first-parent tree view
  std::vector<std::vector<size_t>> parents_;  ///< full parent sets
  /// cpt_[j][p][v] = P(attribute j = v | parent configuration p), p a
  /// mixed-radix index over the parents' values; roots have one row.
  std::vector<std::vector<std::vector<double>>> cpt_;
  std::vector<size_t> order_;  ///< ancestral sampling order (parents first)
};

/// Mean L1 distance between the per-attribute marginal distributions of two
/// datasets — the utility metric of the DP-synthesis experiment.
double MarginalL1Error(const CategoricalData& a, const CategoricalData& b, int8_t domain);

/// Mean L1 distance between the pairwise joint distributions of adjacent
/// attribute pairs (j, j+1) — measures how much dependency structure the
/// synthesizer preserved.
double PairwiseL1Error(const CategoricalData& a, const CategoricalData& b, int8_t domain);

}  // namespace ppdp::dp

#endif  // PPDP_DP_SYNTHESIZER_H_
