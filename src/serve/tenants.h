#ifndef PPDP_SERVE_TENANTS_H_
#define PPDP_SERVE_TENANTS_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/ledger.h"
#include "obs/wal.h"

namespace ppdp::serve {

/// Per-tenant privacy-budget bookkeeping for the serve daemon: every tenant
/// named in a request gets its own PrivacyLedger (created on first use,
/// named "tenant.<name>" so it shows up in /statusz snapshots and exports a
/// ledger.tenant.<name>.remaining_epsilon gauge). The registry only creates
/// and wires ledgers; each ledger's Spend alone decides and, with a WAL
/// attached, makes durable every ε charge. Ledgers are never removed
/// while the registry lives, so a returned pointer stays valid for the
/// daemon's lifetime and one tenant's exhaustion cannot disturb another's
/// ledger.
class TenantRegistry {
 public:
  struct Options {
    /// ε budget each tenant's ledger enforces by sequential composition.
    double budget_per_tenant = 4.0;
    /// Cap on distinct tenants: names are attacker-controlled input, and
    /// each ledger registers a metric gauge, so an unbounded registry would
    /// let a client grow process memory without limit.
    size_t max_tenants = 64;
  };

  explicit TenantRegistry(Options options) : options_(options) {}
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Tenant names travel in JSON request bodies: accept only non-empty
  /// names up to 64 chars of [A-Za-z0-9_.-] so a hostile name cannot smuggle
  /// metric-label or JSON structure.
  static Status ValidateName(const std::string& tenant);

  /// The tenant's ledger, created on first use. kInvalidArgument for a bad
  /// name, kFailedPrecondition when the tenant cap is reached (existing
  /// tenants are still served).
  Result<obs::PrivacyLedger*> ForTenant(const std::string& tenant);

  /// The ledger if the tenant already exists, else nullptr (audit reads
  /// must not allocate ledgers for never-seen tenants).
  obs::PrivacyLedger* FindTenant(const std::string& tenant) const;

  /// Wires `wal` (non-owning; the caller keeps it alive) into every
  /// tenant's ledger via PrivacyLedger::AttachWal — existing ones now, new
  /// ones as ForTenant creates them — so each Spend charges ahead through
  /// it. First replays the spends `wal` recovered into per-tenant ledgers
  /// via RestoreSpend, so remaining-ε is continuous across a daemon
  /// restart. Recovered tenants count against max_tenants; recovery fails
  /// (kFailedPrecondition) rather than silently dropping a tenant's spent
  /// budget when the cap is too small, and fails (kDataLoss) on a recovered
  /// tenant name that no longer validates. Per-tenant recovered ε is
  /// exported as a `serve.ledger.recovered_epsilon.<tenant>` gauge. Call
  /// once, before the first request.
  Status AttachWal(obs::LedgerWal* wal);

  size_t size() const;
  double budget_per_tenant() const { return options_.budget_per_tenant; }

  /// (tenant, replayed ε) recovered by AttachWal, in tenant-name order.
  std::vector<std::pair<std::string, double>> RecoveredEpsilon() const;

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<obs::PrivacyLedger>> ledgers_;
  obs::LedgerWal* wal_ = nullptr;  ///< set once by AttachWal; wired into new ledgers
  std::map<std::string, double> recovered_;
};

}  // namespace ppdp::serve

#endif  // PPDP_SERVE_TENANTS_H_
