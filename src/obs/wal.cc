#include "obs/wal.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/hash.h"
#include "fault/fault.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace ppdp::obs {

namespace {

constexpr char kMagic[8] = {'P', 'P', 'D', 'P', 'W', 'A', 'L', '1'};
constexpr uint8_t kRecordSpend = 1;
constexpr uint8_t kRecordAbort = 2;
/// Records are a few hundred bytes at most (tenant/label/mechanism are
/// length-capped upstream); anything claiming more is corruption, not data.
constexpr uint32_t kMaxPayloadBytes = 4096;

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, 4);
  out->append(bytes, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, 8);
  out->append(bytes, 8);
}

void PutDouble(std::string* out, double v) {
  char bytes[8];
  std::memcpy(bytes, &v, 8);
  out->append(bytes, 8);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked little-endian reader over a payload buffer.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) { return ReadRaw(v, 1); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, 8); }
  bool ReadDouble(double* v) { return ReadRaw(v, 8); }
  bool ReadString(std::string* v) {
    uint32_t len = 0;
    if (!ReadU32(&len) || len > size_ - pos_) return false;
    v->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Counter& AppendCounter() {
  static Counter& c = MetricsRegistry::Global().counter("ledger.wal.appends");
  return c;
}
Counter& SyncCounter() {
  static Counter& c = MetricsRegistry::Global().counter("ledger.wal.fsyncs");
  return c;
}
Counter& AppendFailureCounter() {
  static Counter& c = MetricsRegistry::Global().counter("ledger.wal.append_failures");
  return c;
}

}  // namespace

Result<LedgerWal::SyncPolicy> ParseSyncPolicy(const std::string& name) {
  if (name == "always") return LedgerWal::SyncPolicy::kAlways;
  if (name == "batch") return LedgerWal::SyncPolicy::kBatch;
  return Status::InvalidArgument("unknown ledger sync policy: " + name +
                                 " (expected always | batch)");
}

Result<WalRecovery> LedgerWal::Scan(const std::string& path) {
  WalRecovery recovery;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return recovery;  // no WAL yet: empty recovery
    return Status::Unavailable("wal open('" + path + "'): " + std::strerror(errno));
  }
  std::string contents;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    contents.append(buffer, static_cast<size_t>(n));
  }
  const bool read_failed = n < 0;
  ::close(fd);
  if (read_failed) {
    return Status::Unavailable("wal read('" + path + "'): " + std::strerror(errno));
  }
  if (contents.empty()) return recovery;  // created-but-unwritten file
  if (contents.size() < sizeof(kMagic) ||
      std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("'" + path + "' is not a ppdp ledger WAL (bad magic)");
  }

  // Spends indexed by sequence so aborts can cancel them; the surviving set
  // is emitted in original append order.
  std::vector<WalSpend> spends;
  size_t pos = sizeof(kMagic);
  recovery.valid_bytes = pos;
  while (pos < contents.size()) {
    if (contents.size() - pos < 12) break;  // torn frame header
    uint32_t payload_len = 0;
    uint64_t checksum = 0;
    std::memcpy(&payload_len, contents.data() + pos, 4);
    std::memcpy(&checksum, contents.data() + pos + 4, 8);
    if (payload_len == 0 || payload_len > kMaxPayloadBytes) break;       // corrupt length
    if (contents.size() - pos - 12 < payload_len) break;                 // torn payload
    const char* payload = contents.data() + pos + 12;
    if (Fnv1a64(payload, payload_len) != checksum) break;                // corrupt payload

    PayloadReader reader(payload, payload_len);
    uint8_t type = 0;
    uint64_t seq = 0;
    if (!reader.ReadU8(&type) || !reader.ReadU64(&seq)) break;
    if (type == kRecordSpend) {
      WalSpend spend;
      spend.seq = seq;
      if (!reader.ReadString(&spend.tenant) || !reader.ReadString(&spend.label) ||
          !reader.ReadString(&spend.mechanism) || !reader.ReadDouble(&spend.epsilon) ||
          !reader.ReadU64(&spend.invocations) || !reader.exhausted()) {
        break;
      }
      spends.push_back(std::move(spend));
    } else if (type == kRecordAbort) {
      if (!reader.exhausted()) break;
      for (auto it = spends.rbegin(); it != spends.rend(); ++it) {
        if (it->seq == seq) {
          spends.erase(std::next(it).base());
          ++recovery.aborts_applied;
          break;
        }
      }
    } else {
      break;  // unknown record type: treat as corruption
    }
    ++recovery.records_read;
    pos += 12 + payload_len;
    recovery.valid_bytes = pos;
  }
  recovery.truncated_bytes = contents.size() - recovery.valid_bytes;
  recovery.tail_truncated = recovery.truncated_bytes > 0;
  recovery.spends = std::move(spends);
  return recovery;
}

Result<std::unique_ptr<LedgerWal>> LedgerWal::Open(const Options& options) {
  if (options.path.empty()) return Status::InvalidArgument("wal path must not be empty");
  PPDP_ASSIGN_OR_RETURN(WalRecovery recovery, Scan(options.path));
  if (recovery.tail_truncated) {
    if (::truncate(options.path.c_str(), static_cast<off_t>(recovery.valid_bytes)) != 0) {
      return Status::Unavailable("wal truncate('" + options.path +
                                 "'): " + std::strerror(errno));
    }
    PPDP_LOG(WARN) << "ledger wal recovered with a torn/corrupt tail"
                   << Field("path", options.path)
                   << Field("truncated_bytes", recovery.truncated_bytes)
                   << Field("records", recovery.records_read);
  }

  int fd = ::open(options.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Unavailable("wal open('" + options.path + "'): " + std::strerror(errno));
  }
  if (recovery.valid_bytes == 0) {
    // Fresh (or empty) file: stamp the magic before any record.
    if (::write(fd, kMagic, sizeof(kMagic)) != static_cast<ssize_t>(sizeof(kMagic)) ||
        ::fsync(fd) != 0) {
      Status status =
          Status::Unavailable("wal header write('" + options.path + "'): " + std::strerror(errno));
      ::close(fd);
      return status;
    }
  }
  uint64_t next_seq = 1;
  for (const WalSpend& spend : recovery.spends) {
    if (spend.seq >= next_seq) next_seq = spend.seq + 1;
  }
  // Aborted spends also consumed sequence numbers; records_read is a safe
  // upper bound that keeps new sequences unique without replaying aborts.
  next_seq += recovery.aborts_applied;
  return std::unique_ptr<LedgerWal>(
      new LedgerWal(options, fd, std::move(recovery), next_seq));
}

LedgerWal::LedgerWal(Options options, int fd, WalRecovery recovery, uint64_t next_seq)
    : options_(std::move(options)), recovery_(std::move(recovery)), fd_(fd),
      next_seq_(next_seq) {}

LedgerWal::~LedgerWal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::fsync(fd_);  // best-effort: flush any kBatch tail before closing
    ::close(fd_);
    fd_ = -1;
  }
}

Status LedgerWal::AppendRecord(const std::string& payload) {
  // Callers hold mutex_.
  if (poisoned_) {
    return Status::Unavailable("ledger wal is poisoned after a failed write; "
                               "restart to recover");
  }

  std::string frame;
  frame.reserve(12 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, Fnv1a64(payload.data(), payload.size()));
  frame += payload;

  // Deterministic chaos hook. kDrop models a write that failed cleanly
  // (nothing reached the file); kCorrupt models a write that hit the disk
  // bit-flipped. Either way the spend must not be admitted, and a corrupt
  // write additionally poisons the log: appending past garbage would strand
  // every later record behind the recovery truncation point.
  fault::FaultDecision decision =
      PPDP_FAULT_POINT("ledger.wal.append", fault::kMaskDrop | fault::kMaskCorrupt);
  if (decision.drop()) {
    AppendFailureCounter().Increment();
    return Status::Unavailable("ledger wal append dropped (fault ledger.wal.append)");
  }
  if (decision.corrupt()) {
    const size_t bit = decision.corrupt_bit % (payload.size() * 8);
    frame[12 + bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }

  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      poisoned_ = true;  // unknown how much hit the disk: fail-stop
      AppendFailureCounter().Increment();
      return Status::Unavailable("ledger wal write: " + std::string(std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  if (decision.corrupt()) {
    poisoned_ = true;
    AppendFailureCounter().Increment();
    return Status::DataLoss("ledger wal append corrupted (fault ledger.wal.append); "
                            "log poisoned until restart");
  }
  unsynced_bytes_ += frame.size();
  ++appends_;
  AppendCounter().Increment();

  const bool should_sync = options_.sync == SyncPolicy::kAlways ||
                           unsynced_bytes_ >= options_.batch_bytes;
  if (should_sync) {
    fault::FaultDecision sync_decision =
        PPDP_FAULT_POINT("ledger.wal.fsync", fault::kMaskDrop);
    if (sync_decision.drop()) {
      // An fsync whose outcome is unknown leaves durability unknowable for
      // everything after it: fail-stop, like the write path.
      poisoned_ = true;
      AppendFailureCounter().Increment();
      return Status::Unavailable("ledger wal fsync dropped (fault ledger.wal.fsync)");
    }
    if (::fsync(fd_) != 0) {
      poisoned_ = true;
      AppendFailureCounter().Increment();
      return Status::Unavailable("ledger wal fsync: " + std::string(std::strerror(errno)));
    }
    unsynced_bytes_ = 0;
    ++syncs_;
    SyncCounter().Increment();
  }
  return Status::Ok();
}

Status LedgerWal::AppendSpend(std::string_view tenant, std::string_view label,
                              std::string_view mechanism, double epsilon,
                              uint64_t invocations, uint64_t* seq_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t seq = next_seq_;
  std::string payload;
  payload.push_back(static_cast<char>(kRecordSpend));
  PutU64(&payload, seq);
  PutString(&payload, tenant);
  PutString(&payload, label);
  PutString(&payload, mechanism);
  PutDouble(&payload, epsilon);
  PutU64(&payload, invocations);
  PPDP_RETURN_IF_ERROR(AppendRecord(payload));
  ++next_seq_;
  if (seq_out != nullptr) *seq_out = seq;
  return Status::Ok();
}

Status LedgerWal::AppendAbort(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string payload;
  payload.push_back(static_cast<char>(kRecordAbort));
  PutU64(&payload, seq);
  return AppendRecord(payload);
}

Status LedgerWal::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (poisoned_) return Status::Unavailable("ledger wal is poisoned");
  if (fd_ < 0) return Status::FailedPrecondition("ledger wal is closed");
  if (::fsync(fd_) != 0) {
    poisoned_ = true;
    return Status::Unavailable("ledger wal fsync: " + std::string(std::strerror(errno)));
  }
  unsynced_bytes_ = 0;
  ++syncs_;
  SyncCounter().Increment();
  return Status::Ok();
}

bool LedgerWal::poisoned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return poisoned_;
}

uint64_t LedgerWal::appends() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appends_;
}

uint64_t LedgerWal::syncs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return syncs_;
}

}  // namespace ppdp::obs
