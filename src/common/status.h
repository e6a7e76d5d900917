#ifndef PPDP_COMMON_STATUS_H_
#define PPDP_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace ppdp {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kUnavailable,        ///< transient environment failure; retrying may succeed
  kDeadlineExceeded,   ///< the operation's time budget ran out before it finished
  kDataLoss,           ///< payload arrived but failed integrity verification
};

/// Returns a stable human-readable name for `code` ("OK",
/// "INVALID_ARGUMENT", ...).
const char* StatusCodeToString(StatusCode code);

/// Result of a fallible operation. Cheap to copy in the OK case (no
/// allocation), carries a code plus message otherwise. The library does not
/// throw across public interfaces; every operation that can fail returns a
/// Status or a Result<T>.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given error code and message. A kOk code
  /// ignores the message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? std::string() : std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) { return Status(StatusCode::kInternal, std::move(msg)); }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status DataLoss(std::string msg) { return Status(StatusCode::kDataLoss, std::move(msg)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns this status with `context` prepended to the message
  /// ("context: original message"), preserving the error code — the
  /// annotation idiom for adding call-site information while error codes
  /// propagate unchanged through Result moves and the PPDP_* macros.
  /// Annotating an OK status is a no-op.
  Status Annotate(const std::string& context) const {
    if (ok()) return *this;
    return Status(code_, context + ": " + message_);
  }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define PPDP_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::ppdp::Status ppdp_status_internal_ = (expr);   \
    if (!ppdp_status_internal_.ok()) return ppdp_status_internal_; \
  } while (false)

}  // namespace ppdp

#endif  // PPDP_COMMON_STATUS_H_
