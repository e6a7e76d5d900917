#ifndef PPDP_OBS_PROFILER_H_
#define PPDP_OBS_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "common/table.h"

namespace ppdp::obs {

/// ---- Process / thread resource probes (dependency-free) ----

/// Cumulative bytes the calling thread has allocated through the
/// replacement operator new (this library replaces the global allocation
/// functions to count; the count never decreases — it is an allocation
/// *rate* probe, not a live-heap gauge). Zero-cost to read, signal-free.
uint64_t ThreadAllocBytes();
/// Cumulative operator-new calls on the calling thread.
uint64_t ThreadAllocCalls();

struct ProcessMemory {
  uint64_t rss_bytes = 0;       ///< /proc/self/status VmRSS
  uint64_t peak_rss_bytes = 0;  ///< /proc/self/status VmHWM
};
/// Reads current and peak resident set size. Returns zeros where
/// /proc/self/status is unavailable.
ProcessMemory ReadProcessMemory();

/// Current RSS at MonotonicSeconds() `now_seconds`, re-read from /proc at
/// most every 10 ms and otherwise cached: cheap enough for every span close.
uint64_t CurrentRssBytesCached(double now_seconds);

struct ProcessCpu {
  double user_seconds = 0.0;
  double system_seconds = 0.0;
};
/// getrusage(RUSAGE_SELF) user/system split.
ProcessCpu ReadProcessCpu();

/// ---- The aggregated profile document ("ppdp.profile.v1") ----

/// One aggregated sampling profile: per-phase sample counts (a sample is
/// attributed to the innermost TraceSpan open on the sampled thread — the
/// same phase names the ppdp.bench.v1 reports use), top-N self/total frames
/// per phase, phase memory numbers merged from the TraceRecorder, and the
/// collapsed stacks a flamegraph renders.
struct CpuProfile {
  static constexpr int kSchemaVersion = 1;
  /// Document type tag ("ppdp.profile.v1").
  static const char* SchemaTag();

  std::string name;  ///< bench short name ("dp_synthesis"); may be empty
  int hz = 0;
  double duration_seconds = 0.0;
  int threads_profiled = 0;  ///< threads that contributed >= 1 sample
  uint64_t samples = 0;
  uint64_t dropped = 0;  ///< samples lost to full per-thread buffers
  std::string compiler;
  std::string build_type;

  struct FrameCount {
    std::string frame;  ///< demangled symbol or "[unknown]"
    uint64_t samples = 0;
  };

  struct Phase {
    std::string name;  ///< span name, or "(none)" for unattributed samples
    uint64_t samples = 0;
    double cpu_seconds = 0.0;  ///< samples / hz (the CPU-time estimate)
    uint64_t alloc_bytes = 0;      ///< from TraceRecorder phase stats
    uint64_t rss_peak_bytes = 0;   ///< from TraceRecorder phase stats
    std::vector<FrameCount> self_frames;   ///< top-N by leaf-frame samples
    std::vector<FrameCount> total_frames;  ///< top-N by any-frame presence
  };
  std::vector<Phase> phases;  ///< sorted by samples, descending

  /// One collapsed stack "phase;outermost;...;leaf" with its sample count —
  /// the flamegraph.pl / speedscope "folded" format, phase-rooted so flames
  /// group by the bench's own phase names.
  struct Stack {
    std::string stack;
    uint64_t count = 0;
  };
  std::vector<Stack> stacks;       ///< sorted by count desc, capped
  uint64_t stacks_truncated = 0;   ///< unique stacks dropped by the cap

  /// Frames listed per phase and unique stacks retained in the document.
  static constexpr size_t kTopFrames = 10;
  static constexpr size_t kMaxStacks = 512;

  JsonValue ToJson() const;
  Status WriteJson(const std::string& path) const;
  /// Collapsed folded-stack text, one "stack count" line per unique stack.
  Status WriteFolded(const std::string& path) const;
  /// The one reader of the schema, and the check `ppdp_stat profile` and CI
  /// rely on: fails on the first violation of the schema tag and version, a
  /// required key of the wrong JSON kind, or a malformed phase or stack row.
  static Result<CpuProfile> FromJson(const JsonValue& doc);
  static Result<CpuProfile> Load(const std::string& path);

  /// phase | samples | cpu s | alloc MB | peak rss MB | top self frame.
  Table PhaseTable() const;
  /// frame | phase | self samples | share, flattened top `n` self frames.
  Table TopFramesTable(size_t n = 20) const;
};

/// ---- `ppdp_stat profile`: frame-level diff between two profiles ----

struct ProfileDiffOptions {
  /// Relative growth of a frame's self-sample *share* tolerated before the
  /// frame counts as regressed (0.75 = +75%).
  double threshold = 0.75;
  /// The share must additionally grow by this many absolute percentage
  /// points (0.02 = 2pp) — sub-noise frames can triple without meaning.
  double min_share = 0.02;
};

struct FrameDelta {
  std::string frame;
  double baseline_share = 0.0;  ///< self samples / profile samples
  double current_share = 0.0;
  double ratio = 0.0;  ///< current / baseline share (0 when baseline is 0)
  bool regressed = false;
  bool only_in_baseline = false;
  bool only_in_current = false;
};

struct ProfileDiff {
  std::vector<FrameDelta> frames;  ///< baseline share order, then new frames
  bool regressed = false;
  /// frame | baseline % | current % | ratio | verdict table.
  Table Summary() const;
};

/// Diffs self-frame shares aggregated across phases. Frames present on only
/// one side are reported but never count as regressions (code evolves);
/// share growth beyond both thresholds does.
ProfileDiff DiffProfiles(const CpuProfile& baseline, const CpuProfile& current,
                         const ProfileDiffOptions& options);

/// ---- The sampling engine ----

/// Registers the calling thread with the profiler for its lifetime: records
/// its tid and stack bounds, touches its TLS (signal safety), and — when a
/// capture is already running — arms a per-thread CPU-time timer so the
/// thread is sampled immediately. Worker threads in exec::ThreadPool hold
/// one of these for their whole loop. Cheap when profiling is off: one
/// mutex-guarded registry insert, no timer, no buffer.
class ProfiledThreadScope {
 public:
  ProfiledThreadScope();
  ProfiledThreadScope(const ProfiledThreadScope&) = delete;
  ProfiledThreadScope& operator=(const ProfiledThreadScope&) = delete;
  ~ProfiledThreadScope();

 private:
  bool owned_;  ///< false when the thread was already registered (nesting)
};

/// Signal-based sampling CPU profiler. Off by default — a process that
/// never calls Start pays nothing beyond thread registration. When running,
/// every registered thread owns a POSIX per-thread timer on its own CPU
/// clock (pthread_getcpuclockid) that delivers SIGPROF at `hz` samples per second
/// *of CPU time consumed by that thread* (idle threads are never sampled),
/// and the handler captures a frame-pointer backtrace plus the innermost
/// open TraceSpan id into a pre-allocated per-thread buffer. Everything the
/// handler touches is async-signal-safe: thread-local atomics and raw
/// memory, no locks, no allocation, no syscalls. Symbolization (dladdr +
/// __cxa_demangle) happens offline in Collect().
class Profiler {
 public:
  struct Options {
    /// Samples per second of per-thread CPU time. Prime rates (97, 211)
    /// avoid lock-step with periodic work.
    int hz = 97;
  };

  /// Samples each thread can buffer per capture; at 97 Hz this is ~84 s of
  /// fully-busy thread time. Overflow drops samples (counted, reported).
  static constexpr size_t kMaxSamplesPerThread = 1 << 13;
  /// Deepest recorded backtrace; deeper stacks are truncated at the leaf end.
  static constexpr size_t kMaxFrames = 48;

  static Profiler& Global();

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Installs the SIGPROF handler (first call), allocates buffers, and arms
  /// a timer for every registered thread. Fails when already running or
  /// `hz` is out of [1, 10000].
  Status Start(const Options& options);

  /// Disarms all timers. Samples are retained for Collect. Idempotent.
  void Stop();

  bool running() const;
  int hz() const;
  uint64_t samples_recorded() const;  ///< across all threads, this capture
  uint64_t samples_dropped() const;
  size_t threads_registered() const;

  /// Aggregates and symbolizes everything sampled since Start into a
  /// CpuProfile (phase attribution via the TraceSpan id recorded with every
  /// sample; per-phase memory merged from the global TraceRecorder). Safe
  /// to call mid-capture — it snapshots what each thread has published so
  /// far, which is how /profilez serves a live profile.
  CpuProfile Collect(const std::string& name = "") const;

  /// Forgets all buffered samples (the next capture starts clean).
  /// Must not be called while running.
  void ClearSamples();

 private:
  friend class ProfiledThreadScope;
};

}  // namespace ppdp::obs

#endif  // PPDP_OBS_PROFILER_H_
