#ifndef PPDP_OBS_TRACE_H_
#define PPDP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>


namespace ppdp::obs {

/// One completed span on the monotonic timeline (timestamps in microseconds
/// since process start). Besides wall time, each span carries the CPU time
/// its own thread consumed while the span was open, so run reports can
/// separate "slow because busy" from "slow because waiting", plus the bytes
/// this thread allocated inside the span — the same phase names thereby
/// break down time *and* memory.
struct TraceEvent {
  uint32_t span = 0;    ///< interned span-name id (SpanNameForId)
  uint32_t thread = 0;  ///< small per-process thread ordinal
  double start_us = 0.0;
  double duration_us = 0.0;
  double cpu_us = 0.0;  ///< thread CPU time consumed inside the span
  uint64_t alloc_bytes = 0;  ///< operator-new bytes this thread allocated in the span
};

/// ---- Span-name interning (shared with the sampling profiler) ----
///
/// Span names are interned into small stable ids so a SIGPROF handler can
/// attribute a sample to the innermost open span without touching strings,
/// locks, or the allocator. Id 0 is reserved for "no open span".

/// One call site's span name, interned once (PPDP_SPAN_SITE): its id and
/// its leaked, never-moving name. Opening a span then builds no string.
struct SpanSite {
  explicit SpanSite(std::string_view span_name);
  uint32_t id = 0;
  const std::string* name = nullptr;
};

/// The name behind an interned id; "(none)" for 0 or an unknown id. The
/// returned reference is to leaked storage and stays valid forever.
const std::string& SpanNameForId(uint32_t id);

/// Innermost open span id on the calling thread (0 when none). Reads only a
/// thread-local pointer and atomics, so it is async-signal-safe *provided
/// the thread's TLS was touched before* — TouchSpanTls() at thread
/// registration guarantees that.
uint32_t CurrentThreadSpanId();

/// Forces initialization of the calling thread's span TLS so a later signal
/// handler cannot hit a lazy __tls_get_addr allocation.
void TouchSpanTls();

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID
/// where available; 0.0 on platforms without a thread CPU clock).
double ThreadCpuSeconds();

/// The stack of TraceSpans currently open on one thread, outermost first —
/// what /statusz shows as "where is every thread right now".
struct ActiveSpanStack {
  uint32_t thread = 0;  ///< the same per-process ordinal TraceEvent carries
  std::vector<std::string> spans;
};

/// Live snapshot of every thread's open-span stack (threads with no open
/// span are omitted), from the id stacks the profiler reads. Sorted by
/// thread ordinal. Safe to call from any thread at any time — the
/// telemetry server polls it mid-run.
std::vector<ActiveSpanStack> ActiveSpanStacks();

/// Process-wide collector of completed TraceSpans. Each thread folds its
/// closes into its own phase rows under its own lock, so memory grows with
/// span names, not spans, and readers fold every thread's rows, exited
/// threads' included. Raw events are kept only while event retention is on
/// (benches turn it on for --trace_out), capped at kMaxEvents.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Keeps (or stops keeping) raw events; off by default.
  void SetRetainEvents(bool retain);

  /// Folds `event` into the calling thread's rows; keeps it if retaining.
  void Record(const TraceEvent& event);
  /// Events retention left out because kMaxEvents were already kept.
  size_t num_dropped() const;
  std::vector<TraceEvent> events() const;
  void Clear();

  /// Wall+CPU aggregate by span name, sorted by descending wall total.
  struct PhaseStats {
    std::string name;
    uint64_t count = 0;
    double wall_ms_total = 0.0;
    double wall_ms_mean = 0.0;
    double wall_ms_min = 0.0;
    double wall_ms_max = 0.0;
    double cpu_ms_total = 0.0;
    uint64_t alloc_bytes_total = 0;  ///< operator-new bytes across all events
  };
  std::vector<PhaseStats> PhaseStatsSorted() const;

  /// Maximum retained events before new ones are dropped.
  static constexpr size_t kMaxEvents = 1 << 18;

 private:
  TraceRecorder() = default;  // one per process: the phase rows live in the span slots
  std::atomic<bool> retain_events_{false};
  mutable std::mutex mutex_;  ///< guards the retained events
  std::vector<TraceEvent> events_;
  size_t dropped_ = 0;
};

/// RAII scoped timer: measures the enclosed scope on the monotonic clock
/// and records a TraceEvent on close (destruction, or an earlier Stop()).
/// Nestable (inner spans simply record their own shorter intervals) and
/// thread-safe (each span is local; each thread folds its own closes).
///
///   { TraceSpan span(PPDP_SPAN_SITE("synth.fit.structure")); ... }
class TraceSpan {
 public:
  explicit TraceSpan(const SpanSite& site);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { Stop(); }

  /// Closes the span now and returns its wall micros (0 once closed).
  double Stop();

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const;

  const SpanSite& site() const { return site_; }
  uint32_t id() const { return site_.id; }

 private:
  const SpanSite& site_;
  bool open_ = true;
  double start_us_;
  double start_cpu_us_;
  uint64_t start_alloc_bytes_;
};

/// Pushes an already-open span's id onto the calling thread's span-id stack
/// for the scope's lifetime: a TraceSpan's push/pop without its clock reads,
/// CPU/alloc probes or phase fold. Pool workers run a caller's chunks under
/// it, so profiler samples and /statusz stacks name the caller's phase.
/// Pushes nothing for id 0.
class SpanIdScope {
 public:
  explicit SpanIdScope(uint32_t id);
  SpanIdScope(const SpanIdScope&) = delete;
  SpanIdScope& operator=(const SpanIdScope&) = delete;
  ~SpanIdScope();

 private:
  bool pushed_;
};

}  // namespace ppdp::obs

/// The calling site's SpanSite for the literal `name`, held in a
/// function-local static: obs::TraceSpan span(PPDP_SPAN_SITE("a.b"));
#define PPDP_SPAN_SITE(name) \
  ([]() -> const ::ppdp::obs::SpanSite& { static const ::ppdp::obs::SpanSite s(name); return s; }())

#endif  // PPDP_OBS_TRACE_H_
