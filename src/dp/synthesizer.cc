#include "dp/synthesizer.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "dp/mechanisms.h"
#include "exec/parallel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::dp {

namespace {

/// Empirical mutual information between attributes a and b.
double MutualInformation(const CategoricalData& data, size_t a, size_t b, int8_t domain) {
  const double n = static_cast<double>(data.size());
  const size_t k = static_cast<size_t>(domain);
  std::vector<double> joint(k * k, 0.0), pa(k, 0.0), pb(k, 0.0);
  for (const auto& row : data) {
    size_t va = static_cast<size_t>(row[a]);
    size_t vb = static_cast<size_t>(row[b]);
    joint[va * k + vb] += 1.0;
    pa[va] += 1.0;
    pb[vb] += 1.0;
  }
  double mi = 0.0;
  for (size_t va = 0; va < k; ++va) {
    for (size_t vb = 0; vb < k; ++vb) {
      double pj = joint[va * k + vb] / n;
      if (pj <= 0.0) continue;
      mi += pj * std::log(pj * n * n / (pa[va] * pb[vb]));
    }
  }
  return mi;
}

/// Per-attribute marginal distributions of a dataset.
std::vector<std::vector<double>> Marginals(const CategoricalData& data, int8_t domain) {
  PPDP_CHECK(!data.empty());
  const size_t width = data[0].size();
  std::vector<std::vector<double>> result(width,
                                          std::vector<double>(static_cast<size_t>(domain), 0.0));
  for (const auto& row : data) {
    for (size_t j = 0; j < width; ++j) result[j][static_cast<size_t>(row[j])] += 1.0;
  }
  for (auto& m : result) NormalizeInPlace(m);
  return result;
}

/// Stream-id base for the per-attribute noisy-table RNGs, keeping them
/// disjoint from any other Split consumer of the same seed.
constexpr uint64_t kTableStreamBase = 0x5459000000000000ULL;

}  // namespace

Status SynthesizerConfig::Validate() const {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (!(structure_fraction >= 0.0) || structure_fraction >= 1.0) {
    return Status::InvalidArgument("structure_fraction must be in [0, 1)");
  }
  if (domain < 2) return Status::InvalidArgument("domain must be at least 2");
  if (max_parents < 1) return Status::InvalidArgument("max_parents must be >= 1");
  return exec::ExecConfig{threads}.Validate();
}

Result<PrivateSynthesizer> PrivateSynthesizer::Fit(const CategoricalData& data,
                                                   const SynthesizerConfig& config) {
  // A private ledger sized to the declared ε records and enforces every
  // labeled spend of this fit.
  obs::PrivacyLedger ledger(config.epsilon > 0.0 ? config.epsilon : 1.0);
  return Fit(data, config, &ledger);
}

Result<PrivateSynthesizer> PrivateSynthesizer::Fit(const CategoricalData& data,
                                                   const SynthesizerConfig& config,
                                                   obs::PrivacyLedger* ledger,
                                                   const std::string& label_prefix) {
  if (ledger == nullptr) return Fit(data, config);
  obs::TraceSpan fit_span(PPDP_SPAN_SITE("dp.synthesizer.fit"));
  PPDP_RETURN_IF_ERROR(config.Validate());
  if (data.empty()) return Status::InvalidArgument("no data to fit");
  const size_t width = data[0].size();
  if (width == 0) return Status::InvalidArgument("zero-width rows");
  for (const auto& row : data) {
    if (row.size() != width) return Status::InvalidArgument("ragged rows");
    for (int8_t v : row) {
      if (v < 0 || v >= config.domain) return Status::InvalidArgument("value out of domain");
    }
  }

  PrivateSynthesizer model;
  model.config_ = config;
  model.parent_.assign(width, -1);
  model.parents_.assign(width, {});
  model.order_.resize(width);
  for (size_t j = 0; j < width; ++j) model.order_[j] = j;

  Rng rng(config.seed);
  const double n = static_cast<double>(data.size());
  const size_t k = static_cast<size_t>(config.domain);

  // --- Structure: in-order parent selection via the exponential mechanism;
  // with max_parents > 1 each attribute draws up to that many distinct
  // earlier parents (PrivBayes-style k-degree network). MI sensitivity
  // under add/remove-one adjacency is O(log n / n).
  if (width > 1 && config.structure_fraction > 0.0) {
    obs::TraceSpan structure_span(PPDP_SPAN_SITE("dp.synthesizer.structure"));
    double eps_structure = config.epsilon * config.structure_fraction;
    double eps_per_choice =
        eps_structure / (static_cast<double>(width - 1) *
                         static_cast<double>(config.max_parents));
    double mi_sensitivity = (std::log(n) + 1.0) / n;

    // The O(d²) MI pair scores dominate the fit and are pure functions of
    // the data — compute the whole triangle in parallel up front; the
    // budget-spending exponential-mechanism draws below stay serial so the
    // root RNG stream is consumed in a fixed order.
    std::vector<std::pair<size_t, size_t>> mi_pairs;
    mi_pairs.reserve(width * (width - 1) / 2);
    for (size_t j = 1; j < width; ++j) {
      for (size_t cand = 0; cand < j; ++cand) mi_pairs.emplace_back(j, cand);
    }
    std::vector<std::vector<double>> mi_scores(width);
    for (size_t j = 1; j < width; ++j) mi_scores[j].assign(j, 0.0);
    exec::ParallelFor(
        0, mi_pairs.size(), /*grain=*/8,
        [&](size_t p) {
          auto [j, cand] = mi_pairs[p];
          mi_scores[j][cand] = MutualInformation(data, j, cand, config.domain);
        },
        exec::ExecConfig{config.threads});

    for (size_t j = 1; j < width; ++j) {
      const std::vector<double>& scores = mi_scores[j];
      std::vector<bool> used(j, false);
      size_t want = std::min(config.max_parents, j);
      for (size_t pick = 0; pick < want; ++pick) {
        // Exclude already-chosen parents by flooring their utility.
        std::vector<double> masked = scores;
        for (size_t cand = 0; cand < j; ++cand) {
          if (used[cand]) masked[cand] = -1e9;
        }
        PPDP_RETURN_IF_ERROR(
            ledger->Spend(label_prefix + "structure_selection", "exponential", eps_per_choice));
        size_t parent = ExponentialMechanism(masked, eps_per_choice, mi_sensitivity, rng);
        if (used[parent]) continue;  // exponential tail hit a masked slot
        used[parent] = true;
        model.parents_[j].push_back(parent);
      }
      if (!model.parents_[j].empty()) {
        model.parent_[j] = static_cast<int>(model.parents_[j].front());
      }
    }
  }

  // --- Noisy conditional tables: Laplace with the remaining budget, split
  // across the per-attribute tables (sequential composition); each table's
  // counts change by at most 2 when one record changes (it leaves one cell
  // and enters another), so sensitivity 2.
  obs::TraceSpan tables_span(PPDP_SPAN_SITE("dp.synthesizer.noisy_tables"));
  double eps_tables = config.epsilon * (1.0 - config.structure_fraction);
  double eps_per_table = eps_tables / static_cast<double>(width);
  LaplaceMechanism laplace(/*sensitivity=*/2.0, eps_per_table);

  // Mixed-radix index of a row's parent configuration for attribute j.
  auto parent_index = [&](const CategoricalRow& row, size_t j) {
    size_t index = 0;
    for (size_t p : model.parents_[j]) {
      index = index * k + static_cast<size_t>(row[p]);
    }
    return index;
  };

  // One Laplace-mechanism release per attribute's (conditional) count
  // table — sequential composition across the width tables. Spend the
  // budget serially first (the ledger's audit trail and failure point stay
  // deterministic), then materialize the released tables in parallel: each
  // attribute perturbs its counts from its own index-addressed stream
  // (rng.Split), so the released tables are byte-identical at every thread
  // count.
  PPDP_RETURN_IF_ERROR(ledger->Spend(label_prefix + "conditional_tables", "laplace",
                                     eps_per_table, /*invocations=*/width));
  model.cpt_.resize(width);
  exec::ParallelFor(
      0, width, /*grain=*/1,
      [&](size_t j) {
        Rng table_rng = rng.Split(kTableStreamBase + j);
        size_t parent_rows = 1;
        for (size_t unused = 0; unused < model.parents_[j].size(); ++unused) parent_rows *= k;
        std::vector<std::vector<double>> counts(parent_rows, std::vector<double>(k, 0.0));
        for (const auto& row : data) {
          counts[parent_index(row, j)][static_cast<size_t>(row[j])] += 1.0;
        }
        for (auto& row_counts : counts) {
          for (double& c : row_counts) {
            c = std::max(0.0, laplace.Apply(c, table_rng));
            c += 1e-6;  // smoothing so every row normalizes
          }
          NormalizeInPlace(row_counts);
        }
        model.cpt_[j] = std::move(counts);
      },
      exec::ExecConfig{config.threads});
  PPDP_LOG(INFO) << "synthesizer fit" << obs::Field("rows", data.size())
                 << obs::Field("attributes", width) << obs::Field("epsilon", config.epsilon)
                 << obs::Field("epsilon_spent", ledger->spent())
                 << obs::Field("max_parents", config.max_parents)
                 << obs::Field("seconds", fit_span.ElapsedSeconds());
  return model;
}

CategoricalData PrivateSynthesizer::Sample(size_t count, Rng& rng) const {
  obs::TraceSpan span(PPDP_SPAN_SITE("dp.synthesizer.sample"));
  static obs::Counter& sampled =
      obs::MetricsRegistry::Global().counter("dp.synthesizer.rows_sampled");
  sampled.Increment(count);
  const size_t k = static_cast<size_t>(config_.domain);
  CategoricalData out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    CategoricalRow row(parent_.size(), 0);
    for (size_t j : order_) {
      size_t index = 0;
      for (size_t p : parents_[j]) index = index * k + static_cast<size_t>(row[p]);
      row[j] = static_cast<int8_t>(rng.Categorical(cpt_[j][index]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

double MarginalL1Error(const CategoricalData& a, const CategoricalData& b, int8_t domain) {
  PPDP_CHECK(!a.empty() && !b.empty());
  PPDP_CHECK(a[0].size() == b[0].size()) << "datasets have different widths";
  auto ma = Marginals(a, domain);
  auto mb = Marginals(b, domain);
  double total = 0.0;
  for (size_t j = 0; j < ma.size(); ++j) total += L1Distance(ma[j], mb[j]);
  return total / static_cast<double>(ma.size());
}

double PairwiseL1Error(const CategoricalData& a, const CategoricalData& b, int8_t domain) {
  PPDP_CHECK(!a.empty() && !b.empty());
  const size_t width = a[0].size();
  PPDP_CHECK(width == b[0].size()) << "datasets have different widths";
  if (width < 2) return 0.0;
  const size_t k = static_cast<size_t>(domain);
  auto pairwise = [&](const CategoricalData& d, size_t j) {
    std::vector<double> joint(k * k, 0.0);
    for (const auto& row : d) {
      joint[static_cast<size_t>(row[j]) * k + static_cast<size_t>(row[j + 1])] += 1.0;
    }
    NormalizeInPlace(joint);
    return joint;
  };
  double total = 0.0;
  for (size_t j = 0; j + 1 < width; ++j) {
    total += L1Distance(pairwise(a, j), pairwise(b, j));
  }
  return total / static_cast<double>(width - 1);
}

}  // namespace ppdp::dp
