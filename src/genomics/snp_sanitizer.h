#ifndef PPDP_GENOMICS_SNP_SANITIZER_H_
#define PPDP_GENOMICS_SNP_SANITIZER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "genomics/genome_data.h"
#include "genomics/inference_attack.h"
#include "genomics/privacy_metrics.h"
#include "obs/trace.h"

namespace ppdp::genomics {

/// Neighbor SNPs of a trait (Definition 5.5.3): SNPs directly associated
/// with the trait, SNPs of traits sharing SNPs with it, and SNPs sharing
/// traits with those — i.e. the two-and-a-half-hop closure in the bipartite
/// association graph. Returned sorted ascending.
std::vector<size_t> NeighborSnpsOfTrait(const GwasCatalog& catalog, size_t trait);

/// Neighbor SNPs of a SNP (Definition 5.5.4), analogous closure; the SNP
/// itself is excluded.
std::vector<size_t> NeighborSnpsOfSnp(const GwasCatalog& catalog, size_t snp);

/// The one Ch.5 greedy loop (GreedySanitize, GreedyKinSanitize). From the
/// score `start`, each step scores every candidate in pool order with
/// `trial(candidate)` (the score with that candidate hidden), keeps the
/// first that `rule.Prefer`s to the best so far (`first`: none kept yet,
/// `best` is the current score) and, if `rule.Accept`s it, hides it for
/// good with `pick(candidate)`. The loop stops at `rule.Done`, an empty
/// pool or `max_picks`; `trace` gets `rule.Trace` of the start score and of
/// each pick's.
template <typename Candidate, typename Score, typename Trial, typename Pick, typename Rule>
void RunGreedy(std::vector<Candidate> pool, size_t max_picks, Score start, Trial& trial,
               Pick& pick, const Rule& rule, std::vector<Candidate>* picks,
               std::vector<double>* trace) {
  Score current = start;
  trace->push_back(rule.Trace(current));
  while (!rule.Done(current) && !pool.empty() && picks->size() < max_picks) {
    size_t best = pool.size();
    Score best_score = current;
    for (size_t i = 0; i < pool.size(); ++i) {
      const Score score = trial(pool[i]);
      if (rule.Prefer(score, best_score, best == pool.size())) {
        best = i;
        best_score = score;
      }
    }
    if (best == pool.size() || !rule.Accept(best_score, current)) break;
    pick(pool[best]);
    picks->push_back(pool[best]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
    current = best_score;
    trace->push_back(rule.Trace(current));
  }
}

/// A greedy candidate's variable when hiding it changes no evidence.
inline constexpr size_t kNoVariable = static_cast<size_t>(-1);

/// RunGreedy with the BP attack on `graph`, built once for the call. A
/// candidate unclamps its variable (`variable_of(candidate)`: clamped, or
/// kNoVariable) for one IncrementalBp solve of the `read` variables, and
/// `score` maps their marginals to the rule's score; a pick unclamps it for
/// good. Every marginal is bit-identical to a whole-graph solve of a graph
/// rebuilt from the current evidence. The call is one
/// `genomics.bp.sum_product` span; `genomics.bp.runs` counts its solves.
template <typename Candidate, typename VariableOf, typename ScoreOf, typename Rule>
void RunBpGreedy(FactorGraph* graph, const FactorGraph::BpOptions& options,
                 std::vector<size_t> read, std::vector<Candidate> pool, size_t max_picks,
                 const VariableOf& variable_of, const ScoreOf& score, const Rule& rule,
                 std::vector<Candidate>* picks, std::vector<double>* trace) {
  obs::TraceSpan span(PPDP_SPAN_SITE("genomics.bp.sum_product"));
  IncrementalBp bp(graph, options, std::move(read));
  const auto start = score(bp.current().marginals);
  auto trial = [&](const Candidate& c) {
    const size_t v = variable_of(c);
    return v == kNoVariable ? score(bp.current().marginals) : score(bp.SolveFreed(v).marginals);
  };
  auto pick = [&](const Candidate& c) {
    const size_t v = variable_of(c);
    if (v != kNoVariable) bp.Free(v);
  };
  RunGreedy(std::move(pool), max_picks, start, trial, pick, rule, picks, trace);
}

/// Options of the GPUT greedy solver (Definition 5.5.6).
struct GputOptions {
  double delta = 0.8;                 ///< δ-privacy target on every hidden trait
  size_t max_sanitized = SIZE_MAX;    ///< cap on removed SNPs
  AttackMethod method = AttackMethod::kBeliefPropagation;
  FactorGraph::BpOptions bp;
};

/// What the greedy sanitizer did.
struct GputResult {
  std::vector<size_t> sanitized;       ///< SNPs hidden, in pick order
  std::vector<double> privacy_trace;   ///< min target entropy after each pick
                                       ///< (index 0 = before any sanitization)
  bool satisfied = false;              ///< δ-privacy reached
  size_t released = 0;                 ///< SNPs still published (the utility)
};

/// Greedy GPUT: starting from `view`, repeatedly hides the vulnerable
/// neighbor SNP whose removal most raises the minimum entropy privacy of
/// the hidden `target_traits`, until δ-privacy holds, the candidate pool
/// is exhausted, or `max_sanitized` is hit. Theorems 5.5.1/5.5.2 call this
/// objective monotone submodular, but against the BP attacker it is
/// neither: in Fig 5.2, hiding an SNP lowered privacy in 22.9% of trials
/// and a gain grew after a pick in 18.0% of (candidate, step) pairs
/// (DESIGN.md, "Ch.5 greedy: cost and exactness"). So every step
/// re-scores every candidate. Mutates nothing outside the returned
/// structures; the sanitized view is also returned.
GputResult GreedySanitize(const GwasCatalog& catalog, TargetView view,
                          const std::vector<size_t>& target_traits, const GputOptions& options,
                          TargetView* sanitized_view = nullptr);

}  // namespace ppdp::genomics

#endif  // PPDP_GENOMICS_SNP_SANITIZER_H_
