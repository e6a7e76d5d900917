#ifndef PPDP_OBS_ROTATING_LOG_H_
#define PPDP_OBS_ROTATING_LOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "common/status.h"

namespace ppdp::obs {

/// Size-rotated JSONL sink shared by the serve access log and the SLO alert
/// log: one complete JSON object per line, flushed per append so live
/// tooling (tail, `ppdp_stat access`, `ppdp_stat slo`) never reads a torn record.
/// At most one rotated generation is kept (`<path>.1`), bounding the disk
/// footprint at ~2x max_bytes. Appends are serialized under one mutex, so
/// concurrent writers crossing the rotation boundary still produce
/// exactly-once records split cleanly across `<path>` and `<path>.1`.
class RotatingJsonlLog {
 public:
  RotatingJsonlLog() = default;
  ~RotatingJsonlLog();
  RotatingJsonlLog(const RotatingJsonlLog&) = delete;
  RotatingJsonlLog& operator=(const RotatingJsonlLog&) = delete;

  /// Opens (appending) `path`; rotation to `<path>.1` triggers once the
  /// current file would exceed `max_bytes`.
  Status Open(const std::string& path, uint64_t max_bytes);
  bool enabled() const;

  /// Appends one line (the trailing newline is added here). `line` must be
  /// a complete single-line JSON document.
  Status Append(const std::string& line);

  void Close();

  /// Lines appended since Open (both generations; for tests/statusz).
  uint64_t lines_written() const;
  /// Rotations performed since Open.
  uint64_t rotations() const;

 private:
  mutable std::mutex mutex_;
  std::string path_;
  uint64_t max_bytes_ = 0;
  std::FILE* file_ = nullptr;
  uint64_t bytes_written_ = 0;
  uint64_t lines_written_ = 0;
  uint64_t rotations_ = 0;
};

}  // namespace ppdp::obs

#endif  // PPDP_OBS_ROTATING_LOG_H_
