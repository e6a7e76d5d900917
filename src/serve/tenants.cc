#include "serve/tenants.h"

#include <utility>

#include "obs/metrics.h"

namespace ppdp::serve {

Status TenantRegistry::ValidateName(const std::string& tenant) {
  if (tenant.empty()) return Status::InvalidArgument("tenant name must not be empty");
  if (tenant.size() > 64) return Status::InvalidArgument("tenant name exceeds 64 characters");
  for (char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) {
      return Status::InvalidArgument("tenant name may only contain [A-Za-z0-9_.-]: " + tenant);
    }
  }
  return Status::Ok();
}

Result<obs::PrivacyLedger*> TenantRegistry::ForTenant(const std::string& tenant) {
  PPDP_RETURN_IF_ERROR(ValidateName(tenant));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(tenant);
  if (it != ledgers_.end()) return it->second.get();
  if (ledgers_.size() >= options_.max_tenants) {
    return Status::FailedPrecondition("tenant limit reached (" +
                                      std::to_string(options_.max_tenants) +
                                      "); tenant not admitted: " + tenant);
  }
  auto ledger = std::make_unique<obs::PrivacyLedger>(options_.budget_per_tenant);
  ledger->SetName("tenant." + tenant);
  if (wal_ != nullptr) ledger->AttachWal(wal_, tenant);
  obs::PrivacyLedger* raw = ledger.get();
  ledgers_.emplace(tenant, std::move(ledger));
  return raw;
}

Status TenantRegistry::AttachWal(obs::LedgerWal* wal) {
  // ForTenant takes mutex_, so stage the replay through the public surface
  // rather than inlining it; the WAL is wired in only after the replay.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (wal_ != nullptr) return Status::FailedPrecondition("a ledger WAL is already attached");
  }
  for (const obs::WalSpend& spend : wal->recovery().spends) {
    if (!ValidateName(spend.tenant).ok()) {
      return Status::DataLoss("ledger WAL names a tenant that does not validate: '" +
                              spend.tenant + "' (refusing to drop its recovered spend)");
    }
    PPDP_ASSIGN_OR_RETURN(obs::PrivacyLedger * ledger, ForTenant(spend.tenant));
    ledger->RestoreSpend(spend.label, spend.mechanism, spend.epsilon, spend.invocations);
    std::lock_guard<std::mutex> lock(mutex_);
    recovered_[spend.tenant] += spend.total_epsilon();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [tenant, epsilon] : recovered_) {
    obs::MetricsRegistry::Global()
        .gauge("serve.ledger.recovered_epsilon." + tenant)
        .Set(epsilon);
  }
  for (const auto& [tenant, ledger] : ledgers_) ledger->AttachWal(wal, tenant);
  wal_ = wal;
  return Status::Ok();
}

std::vector<std::pair<std::string, double>> TenantRegistry::RecoveredEpsilon() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {recovered_.begin(), recovered_.end()};
}

obs::PrivacyLedger* TenantRegistry::FindTenant(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = ledgers_.find(tenant);
  return it == ledgers_.end() ? nullptr : it->second.get();
}

size_t TenantRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ledgers_.size();
}

}  // namespace ppdp::serve
