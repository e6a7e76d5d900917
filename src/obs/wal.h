#ifndef PPDP_OBS_WAL_H_
#define PPDP_OBS_WAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ppdp::obs {

/// One recovered privacy-ledger spend: the epsilon a tenant was charged (or
/// was about to be charged when the process died — charge-ahead records
/// replay as spent either way, so a crash can never under-count).
struct WalSpend {
  uint64_t seq = 0;
  std::string tenant;
  std::string label;
  std::string mechanism;
  double epsilon = 0.0;  ///< per-invocation ε
  uint64_t invocations = 1;

  double total_epsilon() const { return epsilon * static_cast<double>(invocations); }
};

/// What a WAL scan found: the surviving spends (aborts already applied, in
/// append order) plus accounting of how the tail was treated. Prefix
/// semantics: the scan stops at the first torn or checksum-corrupt record
/// and everything from that offset on is dropped — a WAL writer that keeps
/// appending after a bad write would otherwise leave valid-looking records
/// stranded behind garbage, which is why appends fail-stop (see
/// LedgerWal::Append*) the moment a write goes bad.
struct WalRecovery {
  std::vector<WalSpend> spends;
  uint64_t records_read = 0;    ///< valid records (spends + aborts)
  uint64_t aborts_applied = 0;  ///< spend records cancelled by an abort
  uint64_t valid_bytes = 0;     ///< offset of the first invalid byte
  uint64_t truncated_bytes = 0; ///< torn/corrupt tail dropped by recovery
  bool tail_truncated = false;
};

/// Append-only, checksummed write-ahead log for privacy-ledger spends — the
/// durability layer that makes per-tenant ε budgets survive a crash or
/// restart of the serving daemon.
///
/// Charge-ahead protocol: the caller appends a spend record BEFORE asking
/// the ledger to admit it. If the ledger then rejects the spend, an abort
/// record cancels it; if the process dies in between, recovery replays the
/// spend as spent. The failure mode is therefore always conservative: a
/// crash can only over-count spent ε, never under-count it.
///
/// On-disk format (all integers little-endian):
///   header   "PPDPWAL1" (8 bytes)
///   record   u32 payload_len | u64 fnv1a64(payload) | payload
///   payload  u8 type (1 = spend, 2 = abort) | u64 seq | type-specific
/// The checksum is the same FNV-1a 64 scheme the IoT channel and run-report
/// digests use. Recovery truncates the file at the first torn or corrupt
/// record, so a half-written tail never poisons the next boot.
///
/// Fail-stop contract: once a write or fsync fails (for real, or via the
/// `ledger.wal.append` / `ledger.wal.fsync` fault points), the WAL poisons
/// itself — every later append fails — because a log that cannot promise
/// durability must stop admitting spends rather than silently leak budget.
/// Thread-safe; one mutex serializes appends.
class LedgerWal {
 public:
  struct Options {
    std::string path;
  };

  /// Opens (creating if absent) the WAL at `options.path`: scans existing
  /// records, truncates any torn/corrupt tail, and positions for append.
  /// The recovered spends are available via recovery(). Fails with
  /// kDataLoss when the file exists but does not start with the WAL magic
  /// (it is not ours to truncate), kUnavailable on IO errors.
  static Result<std::unique_ptr<LedgerWal>> Open(const Options& options);
  ~LedgerWal();
  LedgerWal(const LedgerWal&) = delete;
  LedgerWal& operator=(const LedgerWal&) = delete;

  /// Appends a spend record and fsyncs it before returning. On success
  /// `*seq_out` names the record so a rejection can be aborted. Fails
  /// kUnavailable when the log is poisoned or the write/fsync fails — the
  /// caller must refuse the spend (503), never admit it unlogged.
  Status AppendSpend(std::string_view tenant, std::string_view label,
                     std::string_view mechanism, double epsilon, uint64_t invocations,
                     uint64_t* seq_out);

  /// Cancels a previously appended spend (the ledger rejected it). Best
  /// effort: if this append fails, recovery replays the spend as spent —
  /// conservative by design.
  Status AppendAbort(uint64_t seq);

  /// What Open() recovered from the existing file.
  const WalRecovery& recovery() const { return recovery_; }
  const std::string& path() const { return options_.path; }
  bool poisoned() const;
  uint64_t appends() const;
  uint64_t syncs() const;

  /// Read-only scan of a WAL file (what Open would recover) without
  /// truncating anything — tests and offline tooling. A missing file is an
  /// empty recovery, not an error.
  static Result<WalRecovery> Scan(const std::string& path);

 private:
  LedgerWal(Options options, int fd, WalRecovery recovery, uint64_t next_seq);

  /// Serializes, checksums, writes, and fsyncs one payload.
  Status AppendRecord(const std::string& payload);

  Options options_;
  WalRecovery recovery_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  uint64_t next_seq_ = 1;
  bool poisoned_ = false;
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
};

}  // namespace ppdp::obs

#endif  // PPDP_OBS_WAL_H_
