#ifndef PPDP_OBS_LEDGER_H_
#define PPDP_OBS_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/table.h"

namespace ppdp::obs {

class LedgerWal;

/// Auditable privacy-budget ledger and the one place that decides whether
/// ε may be charged: every differential-privacy mechanism invocation is
/// recorded as a labeled ε spend and checked against the budget by
/// sequential composition *before* it happens, so budget exhaustion
/// surfaces as a non-OK Status at the offending call instead of silent
/// over-spending.
///
///   obs::PrivacyLedger ledger(1.0);
///   PPDP_RETURN_IF_ERROR(ledger.Spend("cpt", "laplace", 0.1));
///
/// The ledger lives in obs/ rather than dp/ because dp/ links obs/ and the
/// run reports and /statusz read ledger snapshots from obs/.
///
/// Thread-safe; entries aggregate by (label, mechanism).
class PrivacyLedger {
 public:
  /// Spends are enforced by sequential composition against `budget`
  /// (must be positive).
  explicit PrivacyLedger(double budget);

  /// Records `invocations` applications of `mechanism` costing `epsilon`
  /// each, under `label`. Refusals record nothing, in this order:
  ///   - `invocations == 0` → kInvalidArgument;
  ///   - ε not finite or not positive → kInvalidArgument;
  ///   - the `dp.spend` fault point fires (crash-before-write) → kUnavailable;
  ///   - with a WAL attached, the charge-ahead record cannot be appended →
  ///     kUnavailable (see IsWalRefusal);
  ///   - the remaining budget cannot cover ε × invocations →
  ///     kFailedPrecondition, and the charge-ahead record is aborted.
  /// Refusals other than the first and the WAL's are tallied in
  /// rejected_spends().
  Status Spend(std::string_view label, std::string_view mechanism, double epsilon,
               uint64_t invocations = 1);

  /// Makes every later Spend durable through `wal` under `tenant`
  /// (non-owning; the caller keeps it alive). Charge-ahead: the spend
  /// record is appended before the budget check, outside the ledger's
  /// mutex, and a refused spend is cancelled with a best-effort abort
  /// record — a crash in between replays as spent, which only over-counts.
  /// Call once, before the first Spend.
  void AttachWal(LedgerWal* wal, std::string tenant);

  /// True when `status` is Spend's refusal for a WAL that could not log the
  /// charge-ahead record (as opposed to an injected `dp.spend` fault).
  static bool IsWalRefusal(const Status& status);

  /// Recovery-only: records a spend replayed from a durable log WITHOUT any
  /// budget check. A charge-ahead WAL record proves the ε may already have
  /// left the building, so it must be counted even if that pushes spent past
  /// the budget (remaining then goes ≤ 0 and every later Spend rejects) —
  /// the conservative direction. Never use this on a live request path.
  void RestoreSpend(std::string_view label, std::string_view mechanism, double epsilon,
                    uint64_t invocations = 1);

  double budget() const;
  double spent() const;
  /// Consistent remaining budget: budget and spent are read under one lock,
  /// so a concurrent Spend can never be observed half-applied (the old
  /// implementation computed budget() - spent() from two separate reads).
  double remaining() const;
  uint64_t rejected_spends() const;

  /// One-lock consistent view of the whole budget state — what run reports
  /// persist, so the audit trail can never show spent + remaining != budget.
  struct BudgetSnapshot {
    double budget = 0.0;
    double spent = 0.0;
    double remaining = 0.0;
    uint64_t rejected = 0;
  };
  BudgetSnapshot snapshot() const;

  /// Names this ledger for live telemetry: it appears under `name` in
  /// /statusz snapshots and exports a `ledger.<name>.remaining_epsilon`
  /// gauge updated on every Spend (the gauge reference is resolved once
  /// here, so the spend path pays a single atomic store). Unnamed ledgers
  /// still show up in SnapshotAll under an auto-assigned "ledger<N>" but
  /// register no gauge — short-lived ledgers in sweep loops would otherwise
  /// grow the metric registry without bound.
  void SetName(std::string name);
  std::string name() const;

  /// Live (name, budget snapshot) of every PrivacyLedger currently alive in
  /// the process, in creation order — the per-entity budget view /statusz
  /// serves mid-run.
  static std::vector<std::pair<std::string, BudgetSnapshot>> SnapshotAll();

  /// One aggregated line of the audit trail.
  struct Entry {
    std::string label;
    std::string mechanism;
    uint64_t calls = 0;
    double total_epsilon = 0.0;
  };
  /// Entries in first-spend order.
  std::vector<Entry> entries() const;

  /// Audit table: label, mechanism, calls, epsilon spent, share of budget —
  /// plus a TOTAL row.
  Table Summary() const;

  ~PrivacyLedger();
  PrivacyLedger(const PrivacyLedger&) = delete;
  PrivacyLedger& operator=(const PrivacyLedger&) = delete;

 private:
  /// Adds `total` ε under (label, mechanism); requires mutex_ held.
  void Record(std::string_view label, std::string_view mechanism, double total,
              uint64_t invocations);
  /// Tallies a refused spend (counter, flight event, WARN log); returns it.
  Status Refuse(std::string_view label, std::string_view mechanism, double total,
                Status verdict);

  double budget_;
  LedgerWal* wal_ = nullptr;  ///< set once by AttachWal; null = in-memory only
  std::string wal_tenant_;
  mutable std::mutex mutex_;
  std::string name_;              ///< auto "ledger<N>" until SetName
  class Gauge* remaining_gauge_ = nullptr;  ///< set by SetName; guarded by mutex_
  double spent_ = 0.0;
  uint64_t rejected_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace ppdp::obs

#endif  // PPDP_OBS_LEDGER_H_
