#ifndef PPDP_OBS_SLO_H_
#define PPDP_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/rotating_log.h"

namespace ppdp::obs {

/// ---- Sliding-window aggregation + SRE-style multi-burn-rate alerting ----
///
/// Everything the cumulative MetricsRegistry cannot answer — "is the p99
/// *currently* out of bounds", "how fast is tenant X burning its ε budget
/// *right now*" — runs through these windowed primitives. All evaluation is
/// driven by an injectable clock, so alert timelines replay byte-identically
/// in tests regardless of wall time or thread count.

/// Injectable time source (seconds on a monotonic timeline). The default is
/// obs::MonotonicSeconds; tests substitute a scripted clock.
using SloClock = std::function<double()>;

/// Ring of time-aligned buckets over a scalar stream. Bucket b covers
/// [b*bucket_seconds, (b+1)*bucket_seconds); a windowed query merges the
/// last ceil(window/bucket) buckets, oldest first, so answers lag true
/// sliding-window semantics by at most one bucket — the standard
/// multi-bucket approximation. Each bucket is an obs::BucketAccumulator
/// over `bounds`, so a windowed quantile is BucketQuantile over the merged
/// buckets, the same estimate obs::Histogram gives. Per window length the
/// merge of the closed buckets is cached, so a read costs one merge with
/// the live bucket until the window reaches a new bucket. Thread-safe;
/// stale buckets are lazily recycled on the next touch.
class SlidingWindow {
 public:
  struct Options {
    double bucket_seconds = 1.0;
    /// Ring span = bucket_seconds * num_buckets; windows longer than the
    /// span are clamped to it.
    size_t num_buckets = 660;
    /// Strictly increasing histogram bounds; empty = counter-only window.
    std::vector<double> bounds;
  };

  explicit SlidingWindow(Options options);

  /// Records `value` into the bucket covering `now`.
  void Add(double value, double now);

  struct WindowStats {
    uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;  ///< 0 when empty
  };
  WindowStats StatsOver(double window_seconds, double now) const;

  /// sum over the window / window seconds (events-per-second when Add is
  /// called with value 1, ε-per-second when called with ε, ...).
  double RateOver(double window_seconds, double now) const;

  /// Every bucket inside the window merged into one accumulator over
  /// `bounds` (what QuantileOver estimates from).
  BucketAccumulator MergedOver(double window_seconds, double now) const;

  /// BucketQuantile over MergedOver; 0 when the window is empty or the
  /// window was built without bounds.
  double QuantileOver(double window_seconds, double q, double now) const;

  double bucket_seconds() const { return options_.bucket_seconds; }
  double span_seconds() const {
    return options_.bucket_seconds * static_cast<double>(options_.num_buckets);
  }

 private:
  struct Bucket {
    int64_t index = INT64_MIN;  ///< absolute bucket index; INT64_MIN = never used
    BucketAccumulator stats;
  };
  /// One window length's closed buckets [current - covered + 1, current)
  /// merged oldest first; valid while `current` and `generation` match.
  struct ClosedMerge {
    int64_t covered = 0;  ///< buckets the window spans: the cache key
    int64_t current = INT64_MIN;
    uint64_t generation = 0;
    BucketAccumulator merged;
  };

  /// The window ending at `now` merged into read_: the cached closed
  /// buckets, then the live one. Requires mutex_ held.
  const BucketAccumulator& Read(double window_seconds, double now) const;

  Options options_;
  mutable std::mutex mutex_;
  std::vector<Bucket> ring_;
  // Read cache, at most one entry per window length (<= num_buckets).
  mutable std::vector<ClosedMerge> closed_;
  mutable int64_t newest_ = INT64_MIN;  ///< newest bucket index written or read
  /// Bumped by an Add that recycles a slot or lands below newest_, the
  /// only Adds that can change a cached closed bucket.
  uint64_t generation_ = 0;
  mutable BucketAccumulator read_;  ///< Read's result, reused across reads
};

/// One SRE-style multi-window multi-burn-rate alert rule (the `ppdp.slo.v1`
/// config schema maps onto this 1:1). A rule breaches only when its signal
/// is out of bounds over BOTH the fast and the slow window — the fast
/// window gives detection latency, the slow window keeps one spike from
/// paging — and must hold the breach for `for_seconds` before `pending`
/// escalates to `firing`.
struct AlertRule {
  enum class Signal {
    kAvailability,  ///< non-5xx ratio vs objective, burn-rate framed
    kLatency,       ///< windowed quantile vs threshold_seconds
    kQueue,         ///< windowed mean admission-queue depth ratio vs threshold
    kLedgerBurn,    ///< per-tenant projected ε time-to-exhaustion vs horizon
  };
  enum class Severity {
    kTicket,  ///< firing degrades /healthz
    kPage,    ///< firing fails /healthz
  };

  std::string name;  ///< [A-Za-z0-9_.-], <= 64 chars; unique per config
  Signal signal = Signal::kAvailability;
  Severity severity = Severity::kTicket;

  double fast_window_seconds = 60.0;
  double slow_window_seconds = 600.0;
  double for_seconds = 0.0;      ///< breach hold before pending -> firing
  double resolve_seconds = 60.0; ///< clear hold before firing -> resolved
  uint64_t min_count = 1;        ///< fast-window events required to evaluate

  // Signal-specific parameters (unused ones keep their defaults):
  double objective = 0.999;        ///< availability: good-ratio target
  double burn_rate = 14.4;         ///< availability: error-budget burn multiple
  double quantile = 0.99;          ///< latency: which quantile is bounded
  double threshold = 0.0;          ///< latency: seconds; queue: depth ratio
  double horizon_seconds = 600.0;  ///< ledger burn: minimum acceptable TTE
};

const char* SignalName(AlertRule::Signal signal);
const char* SeverityName(AlertRule::Severity severity);

/// The four built-in rules every serve daemon gets without a --slo_config:
/// availability (99.9% non-5xx, 14.4x burn), request latency (p99 <= 2.5s),
/// admission-queue pressure (mean depth ratio <= 0.9), and per-tenant
/// ledger burn (projected exhaustion within 600s fires a page *before* the
/// first 403).
std::vector<AlertRule> DefaultSloRules();

/// Parses + validates a `ppdp.slo.v1` document. Rejects unknown signals /
/// severities, non-positive or inverted windows, out-of-range objectives,
/// duplicate or grammar-violating rule names.
Result<std::vector<AlertRule>> ParseSloConfig(const JsonValue& doc);
/// Loads + parses a config file.
Result<std::vector<AlertRule>> LoadSloConfig(const std::string& path);

/// Alert lifecycle. `pending -> firing -> resolved` are the logged
/// transitions; a pending alert whose breach clears before `for_seconds`
/// falls back to inactive silently (no operator ever saw it).
enum class AlertState { kInactive, kPending, kFiring, kResolved };
const char* AlertStateName(AlertState state);

/// One logged state transition — the `ppdp.alertlog.v1` record.
struct AlertTransition {
  double t_seconds = 0.0;
  std::string rule;
  std::string tenant;  ///< empty for global (non-ledger) rules
  AlertState from = AlertState::kInactive;
  AlertState to = AlertState::kInactive;
  AlertRule::Severity severity = AlertRule::Severity::kTicket;
  double burn_fast = 0.0;  ///< signal burn in the fast window at transition
  double burn_slow = 0.0;

  JsonValue ToJson() const;
};

/// Offline/windowed attainment of one rule — what /sloz serves, what the
/// bench stanza records.
struct SloAttainment {
  std::string rule;
  std::string signal;
  std::string tenant;      ///< worst tenant for ledger rules, else empty
  double objective = 0.0;  ///< target in the rule's native unit
  double attained = 0.0;   ///< achieved value in the same unit
  bool met = false;
  uint64_t events = 0;  ///< observations in the slow window
};

/// The SLO engine: sliding windows fed from the request path, evaluated
/// into per-rule alert state machines. Exports every transition three ways
/// (alert-state gauges + transition counter in the MetricsRegistry, a
/// FlightRecorder event, and an optional rotating `ppdp.alertlog.v1` JSONL
/// log), and serves the /alertz, /sloz and tri-state /healthz documents.
///
/// Ingestion (RecordRequest/RecordQueueDepth/RecordSpend) takes only the
/// touched window's lock. Evaluation is explicit: call Evaluate() (or the
/// throttled EvaluateIfDue() on hot paths) — nothing fires between calls,
/// which is what makes scripted-clock tests exactly reproducible.
class SloEngine {
 public:
  struct Options {
    std::vector<AlertRule> rules;  ///< empty = DefaultSloRules()
    SloClock clock;                ///< null = obs::MonotonicSeconds
    double bucket_seconds = 1.0;
    /// EvaluateIfDue throttle; 0 evaluates on every call.
    double eval_period_seconds = 1.0;
    /// Cap on distinct tenants tracked for ledger-burn rules (names beyond
    /// it are ignored — the serve layer's TenantRegistry bounds real
    /// tenants anyway).
    size_t max_tenants = 64;
    /// JSONL alert log path (empty = off) + rotation threshold.
    std::string alert_log;
    double alert_log_max_mb = 16.0;
    /// Mint slo.* gauges/counters in the global MetricsRegistry on every
    /// transition. Tests that golden-check /metrics turn this off.
    bool export_metrics = true;
  };

  static Result<std::unique_ptr<SloEngine>> Create(Options options);
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// One finished request: HTTP status + total latency.
  void RecordRequest(int status, double latency_seconds);
  /// Admission-queue depth as a ratio of its bound (sampled per admit).
  void RecordQueueDepth(double depth_ratio);
  /// One successful ε spend with the ledger's post-spend remaining/budget.
  void RecordSpend(const std::string& tenant, double epsilon, double remaining_epsilon,
                   double budget_epsilon);

  /// Evaluates every rule at clock() and returns the transitions that
  /// occurred (already exported). Deterministic given the record/evaluate
  /// timeline.
  std::vector<AlertTransition> Evaluate();
  /// Evaluate() at most once per eval_period_seconds; cheap no-op between.
  /// Single-flight: returns at once while another EvaluateIfDue is running.
  void EvaluateIfDue();

  /// Worst severity among currently-firing alerts: 0 = none, 1 = ticket
  /// (degraded), 2 = page (failing). Uses the states of the last Evaluate.
  int WorstFiringSeverity() const;
  /// Names of currently-firing alert instances ("rule" or "rule/tenant").
  std::vector<std::string> FiringAlerts() const;

  /// `ppdp.alertz.v1`: every rule instance's state, burn rates, and the
  /// windowed inputs the verdict was computed from.
  JsonValue AlertzDocument() const;
  /// `ppdp.sloz.v1`: slow-window attainment per rule.
  JsonValue SlozDocument() const;
  /// The /sloz rows as structs (bench stanza, tests).
  std::vector<SloAttainment> Attainment() const;

  uint64_t transitions_total() const;
  const std::vector<AlertRule>& rules() const { return options_.rules; }
  /// Non-null when an alert log is configured (statusz, tests).
  const RotatingJsonlLog* alert_log() const {
    return alert_log_.enabled() ? &alert_log_ : nullptr;
  }

 private:
  explicit SloEngine(Options options);

  struct TenantBurn {
    std::unique_ptr<SlidingWindow> spend;  ///< ε per bucket
    double remaining = 0.0;
    double budget = 0.0;
  };

  /// Per-(rule, tenant) windowed verdict, kept as plain numbers; /alertz
  /// renders its inputs on request (InputsJson).
  struct SignalReading {
    bool evaluable = false;  ///< enough data to judge
    bool breach = false;
    double burn = 0.0;    ///< signal-specific burn/severity measure
    uint64_t events = 0;  ///< observations in the window
    /// The signal in its rule's unit, read whatever min_count says (the
    /// /sloz attained value): non-5xx ratio (1 when empty), quantile
    /// seconds, mean depth ratio, or projected seconds to ε exhaustion
    /// (infinite while nothing is spent).
    double attained = 0.0;
    uint64_t errors = 0;      ///< availability: 5xx requests in the window
    double rate = 0.0;        ///< ledger burn: ε per second over the window
    double remaining = 0.0;   ///< ledger burn: the tenant's unspent ε
  };
  /// `burn` is the tenant for ledger-burn rules, null for the others.
  SignalReading ReadSignal(const AlertRule& rule, const TenantBurn* burn, double window_seconds,
                           double now) const;
  /// The `inputs_fast`/`inputs_slow` object /alertz shows for a reading.
  static JsonValue InputsJson(const AlertRule& rule, const SignalReading& reading);

  /// One alert instance's state machine.
  struct Instance {
    AlertState state = AlertState::kInactive;
    double since_seconds = 0.0;    ///< entered current state
    double pending_since = 0.0;    ///< breach start (state == pending)
    double clear_since = -1.0;     ///< breach clear start (state == firing)
    SignalReading fast;            ///< the last Evaluate's readings
    SignalReading slow;
  };

  /// Advances one instance; appends transitions. Requires mutex_ held.
  void Step(const AlertRule& rule, const std::string& tenant, const TenantBurn* burn,
            Instance* instance, double now, std::vector<AlertTransition>* transitions);
  /// Exports one transition (metrics, flight ring, alert log). Requires
  /// mutex_ held (the log/flight sinks take only their own locks).
  void Export(const AlertTransition& transition);

  Options options_;
  SloClock clock_;

  // Ingestion windows (each is internally locked).
  SlidingWindow server_errors_;  ///< 5xx requests, value = 1
  /// Request seconds (with bounds); its count is every finished request.
  SlidingWindow latency_;
  SlidingWindow queue_depth_;    ///< admission depth ratio samples

  mutable std::mutex mutex_;  ///< instances + tenants + eval bookkeeping
  std::map<std::string, TenantBurn> tenants_;
  /// One map per rule (same order as options_.rules), keyed by tenant for
  /// ledger-burn rules and "" for the others.
  std::vector<std::map<std::string, Instance>> instances_;
  double last_eval_seconds_ = -1.0;
  std::atomic<bool> evaluating_{false};  ///< an EvaluateIfDue is in progress
  uint64_t transitions_total_ = 0;
  RotatingJsonlLog alert_log_;
};

/// Validates one `ppdp.alertlog.v1` record (shared by `ppdp_stat slo` and
/// tests): schema tag, known states/severities, a legal transition pair,
/// non-negative timestamp and burn rates.
Status ValidateAlertLogRecord(const JsonValue& doc);

}  // namespace ppdp::obs

#endif  // PPDP_OBS_SLO_H_
