#include "obs/ledger.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "fault/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/wal.h"

namespace ppdp::obs {

namespace {

/// Tail of the kUnavailable message Spend returns when the WAL cannot log.
constexpr std::string_view kWalRefused = "ledger wal unavailable; spend refused";

/// Live-ledger registry backing PrivacyLedger::SnapshotAll — the process's
/// per-entity budget view. Creation order is preserved; destruction
/// unregisters, so the telemetry server can never dereference a dead
/// ledger.
struct LedgerRegistry {
  std::mutex mutex;
  std::vector<PrivacyLedger*> live;
  uint64_t created = 0;

  static LedgerRegistry& Global() {
    static LedgerRegistry* registry = new LedgerRegistry();  // intentionally leaked
    return *registry;
  }
};

}  // namespace

PrivacyLedger::PrivacyLedger(double budget) : budget_(budget) {
  PPDP_CHECK(budget > 0.0) << "privacy budget must be positive, got " << budget;
  LedgerRegistry& registry = LedgerRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  name_ = "ledger" + std::to_string(registry.created++);
  registry.live.push_back(this);
}

PrivacyLedger::~PrivacyLedger() {
  LedgerRegistry& registry = LedgerRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = std::find(registry.live.begin(), registry.live.end(), this);
  if (it != registry.live.end()) registry.live.erase(it);
}

void PrivacyLedger::SetName(std::string name) {
  Gauge& gauge =
      MetricsRegistry::Global().gauge("ledger." + name + ".remaining_epsilon");
  std::lock_guard<std::mutex> lock(mutex_);
  name_ = std::move(name);
  remaining_gauge_ = &gauge;
  remaining_gauge_->Set(budget_ - spent_);
}

std::string PrivacyLedger::name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return name_;
}

std::vector<std::pair<std::string, PrivacyLedger::BudgetSnapshot>> PrivacyLedger::SnapshotAll() {
  LedgerRegistry& registry = LedgerRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::pair<std::string, BudgetSnapshot>> snapshots;
  snapshots.reserve(registry.live.size());
  for (const PrivacyLedger* ledger : registry.live) {
    snapshots.emplace_back(ledger->name(), ledger->snapshot());
  }
  return snapshots;
}

void PrivacyLedger::AttachWal(LedgerWal* wal, std::string tenant) {
  PPDP_CHECK(wal != nullptr && wal_ == nullptr) << "attach one WAL, once, before spending";
  wal_ = wal;
  wal_tenant_ = std::move(tenant);
}

bool PrivacyLedger::IsWalRefusal(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         std::string_view(status.message()).ends_with(kWalRefused);
}

Status PrivacyLedger::Spend(std::string_view label, std::string_view mechanism, double epsilon,
                            uint64_t invocations) {
  static Counter& spends = MetricsRegistry::Global().counter("obs.ledger.spends");
  if (invocations == 0) return Status::InvalidArgument("invocations must be positive");
  const double total = epsilon * static_cast<double>(invocations);
  // NaN fails every comparison: without the isfinite check a NaN ε would be
  // admitted and turn spent_ into NaN, opening the budget for good.
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Refuse(label, mechanism, total,
                  Status::InvalidArgument("epsilon must be positive and finite"));
  }
  // Crash-before-write: a fired fault refuses the spend before any WAL
  // record or ledger state exists for it.
  const fault::FaultDecision fault_decision = PPDP_FAULT_POINT("dp.spend", fault::kMaskDrop);
  if (fault_decision.drop()) {
    return Refuse(label, mechanism, total, fault_decision.AsStatus("dp.spend"));
  }
  uint64_t seq = 0;
  if (wal_ != nullptr) {
    Status logged = wal_->AppendSpend(wal_tenant_, label, mechanism, epsilon, invocations, &seq);
    // An unlogged spend could leak budget across a crash: refuse it.
    if (!logged.ok()) {
      return Status::Unavailable(std::string(kWalRefused)).Annotate(logged.ToString());
    }
  }
  double remaining;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spent_ + total <= budget_ + 1e-12) {
      Record(label, mechanism, total, invocations);
      spends.Increment(invocations);
      return Status::Ok();
    }
    remaining = budget_ - spent_;
  }
  // Best effort: if the abort cannot be logged, recovery counts this spend
  // as spent — conservative, never unsafe.
  if (wal_ != nullptr) (void)wal_->AppendAbort(seq);
  return Refuse(label, mechanism, total,
                Status::FailedPrecondition("privacy budget exhausted: spending " +
                                           Table::FormatDouble(total, 6) + " for \"" +
                                           std::string(label) + "\" would exceed remaining " +
                                           Table::FormatDouble(remaining, 6)));
}

Status PrivacyLedger::Refuse(std::string_view label, std::string_view mechanism, double total,
                             Status verdict) {
  static Counter& rejections = MetricsRegistry::Global().counter("obs.ledger.rejected");
  double remaining;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++rejected_;
    remaining = budget_ - spent_;
  }
  rejections.Increment();
  FlightEvent event;
  event.category = "ledger";
  event.severity = "ERROR";
  event.label = std::string(label);
  event.message = "rejected spend of " + Table::FormatDouble(total, 6) + " via " +
                  std::string(mechanism) + ": " + verdict.ToString();
  FlightRecorder::Global().Record(std::move(event));
  PPDP_LOG(WARN) << "privacy ledger rejected spend" << Field("label", std::string(label))
                 << Field("mechanism", std::string(mechanism)) << Field("epsilon", total)
                 << Field("remaining", remaining);
  return verdict;
}

void PrivacyLedger::RestoreSpend(std::string_view label, std::string_view mechanism,
                                 double epsilon, uint64_t invocations) {
  static Counter& restored = MetricsRegistry::Global().counter("obs.ledger.restored");
  if (invocations == 0 || epsilon <= 0.0) return;  // nothing real to restore
  std::lock_guard<std::mutex> lock(mutex_);
  Record(label, mechanism, epsilon * static_cast<double>(invocations), invocations);
  restored.Increment(invocations);
}

void PrivacyLedger::Record(std::string_view label, std::string_view mechanism, double total,
                           uint64_t invocations) {
  spent_ += total;
  if (remaining_gauge_ != nullptr) remaining_gauge_->Set(budget_ - spent_);
  for (Entry& entry : entries_) {
    if (entry.label == label && entry.mechanism == mechanism) {
      entry.calls += invocations;
      entry.total_epsilon += total;
      return;
    }
  }
  entries_.push_back(Entry{std::string(label), std::string(mechanism), invocations, total});
}

double PrivacyLedger::budget() const { return budget_; }

double PrivacyLedger::spent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spent_;
}

double PrivacyLedger::remaining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_ - spent_;
}

PrivacyLedger::BudgetSnapshot PrivacyLedger::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BudgetSnapshot snap;
  snap.budget = budget_;
  snap.spent = spent_;
  snap.remaining = budget_ - spent_;
  snap.rejected = rejected_;
  return snap;
}

uint64_t PrivacyLedger::rejected_spends() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

std::vector<PrivacyLedger::Entry> PrivacyLedger::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

Table PrivacyLedger::Summary() const {
  Table table({"label", "mechanism", "calls", "epsilon spent", "share of budget"});
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry& entry : entries_) {
    table.AddRow({entry.label, entry.mechanism, std::to_string(entry.calls),
                  Table::FormatDouble(entry.total_epsilon, 6),
                  Table::FormatDouble(entry.total_epsilon / budget_, 4)});
  }
  table.AddRow({"TOTAL", "", "", Table::FormatDouble(spent_, 6),
                Table::FormatDouble(spent_ / budget_, 4)});
  return table;
}

}  // namespace ppdp::obs
