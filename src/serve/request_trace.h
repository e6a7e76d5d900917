#ifndef PPDP_SERVE_REQUEST_TRACE_H_
#define PPDP_SERVE_REQUEST_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/http.h"
#include "obs/rotating_log.h"
#include "obs/trace.h"

namespace ppdp::obs {
class SloEngine;
}  // namespace ppdp::obs

namespace ppdp::serve {

class TenantRegistry;

/// ---- W3C traceparent (version 00) ----
///
/// `traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`
///
/// The serving path accepts a caller-supplied trace id via this header and
/// echoes one on every response, so a client (or bench_serve) can join its
/// records with the server's access log. Malformed headers are *ignored* —
/// a fresh id is generated and the request proceeds; tracing must never be
/// able to fail a request.

/// Extracts the trace id from a traceparent header value. Returns false —
/// leaving `trace_id` untouched — for anything that is not a well-formed
/// version-00 header (wrong length, wrong version, non-hex digits, an
/// all-zero trace id, which the spec declares invalid).
bool ParseTraceparent(std::string_view header, std::string* trace_id);

/// Renders a response traceparent: "00-<trace_id>-<span_id>-01".
std::string FormatTraceparent(const std::string& trace_id, const std::string& span_id);

/// Generates a fresh 128-bit (32 lowercase hex) trace id / 64-bit (16 hex)
/// span id. Uniqueness comes from a process-wide random salt mixed with an
/// atomic counter; ids are intentionally *not* derived from the experiment
/// seed — they identify requests, not deviates.
std::string GenerateTraceId();
std::string GenerateSpanId();

/// One lifecycle stage's wall time, as logged in the access record. Stage
/// names are the span names: serve.parse, serve.admission.queue,
/// serve.coalesce.wait, serve.publish, serve.ledger.spend, serve.write.
struct StageMicros {
  std::string name;
  double micros = 0.0;
};

/// Everything the access log and the /requestz completed-ring retain about
/// one finished request — the `ppdp.access.v1` record.
struct RequestRecord {
  std::string request_id;  ///< 32-hex trace id (client-supplied or fresh)
  std::string span_id;     ///< 16-hex server-generated span id
  std::string tenant;
  std::string endpoint;  ///< request path ("/v1/publish", ...)
  int status = 0;
  double epsilon = 0.0;  ///< ε actually charged (0 when rejected pre-spend)
  double total_micros = 0.0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  std::string coalesce;           ///< "" | "leader" | "waiter"
  std::string leader_request_id;  ///< the leader's id, waiters only
  std::vector<StageMicros> stages;

  /// Sum over stages (the invariant serve_test asserts: <= total_micros).
  double StageMicrosSum() const;
  /// The ppdp.access.v1 JSON object (one access-log line, sans newline).
  JsonValue ToJson() const;
};

/// Validates one ppdp.access.v1 object: schema tag, 32-hex request id, a
/// positive numeric status, non-negative total and stage micros, a legal
/// coalesce role (a waiter names a 32-hex leader), and the invariant the
/// writer guarantees by construction: the stage micros sum to at most
/// total_micros. `ppdp_stat access`, `ppdp_stat slo` and serve_test all
/// check access-log lines through this one function. When `record` is
/// non-null it receives the validated fields plus tenant and endpoint.
Status ValidateAccessRecord(const JsonValue& doc, RequestRecord* record = nullptr);

/// Per-request context threaded through a handler: identity (trace id),
/// the record under construction, and the current stage (interned span id,
/// readable lock-free by /requestz). Owned by the connection thread; only
/// `current_stage` is read cross-thread.
class RequestContext {
 public:
  /// Stamps the start time, adopts the request's traceparent trace id (or
  /// generates a fresh one), generates the server span id, and records the
  /// endpoint + body size.
  RequestContext(std::string endpoint, const obs::HttpRequest& request);

  void AddStage(std::string name, double micros);

  /// The response traceparent header value for this request.
  std::string ResponseTraceparent() const {
    return FormatTraceparent(record.request_id, record.span_id);
  }

  RequestRecord record;
  double start_seconds = 0.0;
  /// Interned span-name id of the currently open stage (0 = between stages).
  std::atomic<uint32_t> current_stage{0};
};

/// RAII stage timer: an obs::TraceSpan (phase summaries, /statusz active
/// stacks, the profiler) that on close also adds its wall micros to the
/// context's stage list, so both log the same interval. Stop() ends the
/// stage early; the destructor then no-ops.
class StageTimer {
 public:
  StageTimer(RequestContext* context, const std::string& stage);
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { Stop(); }

  /// Closes the stage now and returns its wall micros.
  double Stop();

 private:
  RequestContext* context_;  ///< null once stopped (or when untracked)
  obs::TraceSpan span_;
};

/// The one owner of a finished request's exports: the in-flight list and
/// the ring of the last kCompletedRing records behind /requestz, the JSONL
/// access log (one ppdp.access.v1 object per line, rotated like the SLO
/// alert log), FlightRecorder capture of slow and non-2xx requests,
/// per-tenant metrics and the SLO feed. Begin and Complete's bookkeeping
/// are one short mutex hold each; the live view reads each context's
/// atomic current_stage without stopping the request. Every other export
/// is gated on its flag, so the no-flags configuration costs next to
/// nothing.
class RequestObserver {
 public:
  static constexpr size_t kCompletedRing = 256;

  /// Per-tenant serve.tenant.<t>.* metrics are minted only for tenants
  /// `tenants` has registered, so its max_tenants cap bounds their series.
  explicit RequestObserver(const TenantRegistry* tenants) : tenants_(tenants) {}
  RequestObserver(const RequestObserver&) = delete;
  RequestObserver& operator=(const RequestObserver&) = delete;

  /// Opens the access log at `access_log` (empty = none), rotating once a
  /// file passes `access_log_max_mb`, and captures requests of at least
  /// `slow_request_ms` (0 = off) in the FlightRecorder.
  Status Configure(const std::string& access_log, double access_log_max_mb,
                   double slow_request_ms);

  /// Attaches the app's SLO engine: every completed request is then fed
  /// into its sliding windows and triggers a (throttled) rule evaluation.
  /// Must be called before serving starts; nullptr detaches.
  void AttachSloEngine(obs::SloEngine* engine) { slo_ = engine; }

  /// Lists `context` as in flight until Complete.
  void Begin(RequestContext* context);
  /// Finalizes the record (total micros), then exports it: access log line,
  /// FlightRecorder capture for slow / non-2xx requests, per-tenant
  /// metrics, SLO windows, and the completed ring, which also unlists it.
  void Complete(RequestContext* context);

  size_t inflight() const;
  uint64_t completed_total() const;

  /// The /requestz document (`ppdp.requestz.v1`): in-flight requests with
  /// their current stage, then completed records newest-first. `tenant`
  /// non-empty keeps only that tenant; `min_ms` > 0 keeps only completed
  /// requests at least that slow.
  JsonValue RequestzDocument(const std::string& tenant, double min_ms) const;

 private:
  const TenantRegistry* tenants_;
  double slow_request_ms_ = 0.0;
  obs::RotatingJsonlLog log_;
  obs::SloEngine* slo_ = nullptr;

  mutable std::mutex mutex_;
  std::vector<RequestContext*> inflight_;
  std::deque<RequestRecord> completed_;
  uint64_t completed_total_ = 0;
};

}  // namespace ppdp::serve

#endif  // PPDP_SERVE_REQUEST_TRACE_H_
