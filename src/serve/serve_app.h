#ifndef PPDP_SERVE_SERVE_APP_H_
#define PPDP_SERVE_SERVE_APP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "core/publisher.h"
#include "obs/http.h"
#include "obs/slo.h"
#include "obs/telemetry_server.h"
#include "obs/wal.h"
#include "serve/admission.h"
#include "serve/coalescer.h"
#include "serve/request_trace.h"
#include "serve/tenants.h"

namespace ppdp::serve {

/// Daemon configuration (the ppdp_serve flags map onto this 1:1).
struct ServeOptions {
  int port = 0;                ///< 0 = ephemeral
  int http_max_conns = 32;     ///< concurrent connection cap (--http_max_conns)
  size_t max_request_body_bytes = 1 << 20;
  double graph_scale = 0.25;   ///< Caltech-like corpus scale loaded at startup
  size_t genome_snps = 300;    ///< synthetic GWAS catalog width
  uint64_t seed = 7;
  int threads = 0;             ///< exec width (0 = all cores)
  double tenant_budget = 4.0;  ///< ε budget per tenant ledger
  size_t max_tenants = 64;
  int max_pending = 64;        ///< admission queue bound (429 beyond)
  double drain_timeout_seconds = 10.0;
  /// Path of the privacy-ledger write-ahead log (--ledger_wal). Empty =
  /// in-memory ledgers only: a restart forgets all spent ε.
  std::string ledger_wal;
  /// Server-side cap on the per-request deadline a client may ask for via
  /// the JSON "deadline_ms" field (--request_deadline_s). A request whose
  /// deadline expires while queued for admission gets 504 instead of
  /// wedging its connection thread.
  double request_deadline_seconds = 30.0;
  /// JSONL access log path (--access_log). Empty = no access log.
  std::string access_log;
  /// Access-log size rotation threshold (--access_log_max_mb). Two files
  /// are kept: at ~460 bytes a record they hold about 1.1M records, over a
  /// minute of traffic at 15k requests/s.
  double access_log_max_mb = 256.0;
  /// Requests at or above this wall time are captured in the FlightRecorder
  /// ring (--slow_request_ms). 0 = slow capture off (non-2xx capture is
  /// always on).
  double slow_request_ms = 0.0;
  /// Path of a `ppdp.slo.v1` alert-rule config (--slo_config). Empty = the
  /// built-in defaults (availability, latency p99, queue pressure, ledger
  /// burn); the SLO engine itself is always on.
  std::string slo_config;
  /// JSONL alert log path (--alert_log, `ppdp.alertlog.v1`). Empty = alert
  /// transitions only reach /metrics, /alertz and the FlightRecorder.
  std::string alert_log;
  /// Alert-log size rotation threshold (--alert_log_max_mb).
  double alert_log_max_mb = 16.0;
  /// Request-path alert evaluation throttle (--slo_eval_period_s).
  double slo_eval_period_seconds = 1.0;
};

/// Publishing-as-a-service on top of the routed TelemetryServer: loads the
/// graph/genome corpora once at Create, owns one unified core::Publisher
/// per corpus kind, and serves
///
///   POST /v1/publish       one publisher run; body names tenant, kind
///                          ("social" | "tradeoff" | "genome"), epsilon and
///                          a sanitization config. Identical (kind, config)
///                          requests inside the coalescing window share one
///                          run; every request's tenant is charged its own
///                          ε first (budget-once, per request).
///   POST /v1/audit         a tenant's ledger snapshot + audit entries.
///   POST /v1/dp/aggregate  ε-DP aggregate over the corpus degree
///                          distribution (op: "histogram" | "quantile" |
///                          "range_count").
///
/// plus the inherited introspection endpoints (/metrics, /statusz, ...) and
/// the SLO surfaces /alertz and /sloz. Degradation: an exhausted tenant
/// gets 403 with remaining-ε detail while other tenants are unaffected; a
/// full admission queue answers 429. /healthz (overridden here) is
/// tri-state — `failing` when a page-severity alert fires, `degraded` for
/// firing ticket alerts or the legacy conditions (ledger rejections, queue
/// pressure, draining) — and `?verbose=1` itemizes every contributing
/// condition as JSON. Stop() drains: new requests get 503 while in-flight
/// ones finish, then the server stops.
class ServeApp {
 public:
  /// Generates the corpora, builds the publishers and the HTTP routing
  /// table. No socket is opened until Start.
  static Result<std::unique_ptr<ServeApp>> Create(const ServeOptions& options);
  ~ServeApp();
  ServeApp(const ServeApp&) = delete;
  ServeApp& operator=(const ServeApp&) = delete;

  Status Start();
  /// Graceful shutdown: drain in-flight requests (bounded by
  /// drain_timeout_seconds), then stop the server. Idempotent.
  void Stop();

  int port() const { return server_->port(); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  size_t inflight() const { return observer_.inflight(); }

  TenantRegistry& tenants() { return tenants_; }
  AdmissionController& admission() { return admission_; }
  BatchCoalescer& coalescer() { return coalescer_; }
  RequestObserver& observer() { return observer_; }
  obs::TelemetryServer& server() { return *server_; }
  /// The SLO engine (always present once Create succeeds).
  obs::SloEngine& slo() { return *slo_; }
  /// The attached ledger WAL, or nullptr when running in-memory only.
  const obs::LedgerWal* wal() const { return wal_.get(); }

  /// One-line structured startup summary: corpus digests, tenant count, and
  /// recovered spent-ε per tenant (what ppdp_serve logs before "serving:").
  JsonValue StartupSummary() const;

  /// The "serve" /statusz section (tenants, queue, coalescing, drain state).
  JsonValue StatuszSection() const;

 private:
  ServeApp(const ServeOptions& options, std::vector<int64_t> degrees, size_t degree_domain,
           std::unique_ptr<core::Publisher> social, std::unique_ptr<core::Publisher> tradeoff,
           std::unique_ptr<core::Publisher> genome);

  void RegisterRoutes();

  /// One traced route's own checks and work. ServeRequest calls it once the
  /// body has parsed as JSON and the tenant is on the record; `parse` is the
  /// open serve.parse stage, which the handler stops once its inputs pass.
  using Handler = void (ServeApp::*)(const JsonValue& body, RequestContext* context,
                                     StageTimer* parse, obs::HttpResponse* response);
  /// The lifecycle every traced request runs once: the `counter` metric,
  /// context and traceparent, observer registration, the draining 503,
  /// the JSON-body 400 and tenant capture, then `handler`; on 200 the
  /// request histogram, and on every path the status/bytes stamp and the
  /// observer's Complete.
  void ServeRequest(const std::string& endpoint, const std::string& counter, Handler handler,
                    const obs::HttpRequest& request, obs::HttpResponse* response);
  void HandlePublish(const JsonValue& body, RequestContext* context, StageTimer* parse,
                     obs::HttpResponse* response);
  void HandleAudit(const JsonValue& body, RequestContext* context, StageTimer* parse,
                   obs::HttpResponse* response);
  void HandleAggregate(const JsonValue& body, RequestContext* context, StageTimer* parse,
                       obs::HttpResponse* response);
  void HandleRequestz(const obs::HttpRequest& request, obs::HttpResponse* response);
  void HandleHealthz(const obs::HttpRequest& request, obs::HttpResponse* response);

  /// The tri-state health verdict + the conditions behind it (the verbose
  /// /healthz body). Severity: 0 = ok, 1 = degraded, 2 = failing.
  struct HealthCondition {
    std::string name;      ///< "alert.<rule>", "ledger.rejections", ...
    int severity = 0;      ///< 0 = info-only, 1 = degrades, 2 = fails
    std::string detail;
  };
  struct HealthVerdict {
    int severity = 0;  ///< max over conditions
    std::vector<HealthCondition> conditions;
  };
  HealthVerdict Health() const;

  /// Records the admission queue depth into the SLO engine (sampled after
  /// each admission attempt on the spending endpoints).
  void ObserveQueueDepth();

  /// The one charge path of the spending endpoints, called once a handler
  /// has validated its body: admission (429, or 504 once `deadline`
  /// passes in line), the deadline re-check (504), the record's tenant's
  /// ledger (400/403), its Spend (503 when refused as unavailable, 403
  /// otherwise) and the SLO burn-rate feed. Returns the charged ledger with
  /// `*slot` held, or nullptr after writing the error response.
  obs::PrivacyLedger* AdmitAndCharge(RequestContext* context, double deadline,
                                     std::string_view label, std::string_view mechanism,
                                     double epsilon, AdmissionSlot* slot,
                                     obs::HttpResponse* response);

  core::Publisher* PublisherFor(core::PublisherKind kind) const;

  ServeOptions options_;
  std::vector<int64_t> degrees_;  ///< corpus degree list the DP aggregates run over
  size_t degree_domain_ = 0;      ///< max degree + 1
  uint64_t graph_digest_ = 0;     ///< FNV-1a of the corpus degree sequence
  uint64_t genome_digest_ = 0;    ///< FNV-1a of the GWAS catalog parameters
  std::unique_ptr<obs::LedgerWal> wal_;  ///< null = in-memory ledgers
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<core::Publisher> social_;
  std::unique_ptr<core::Publisher> tradeoff_;
  std::unique_ptr<core::Publisher> genome_;
  TenantRegistry tenants_;
  AdmissionController admission_;
  BatchCoalescer coalescer_;
  RequestObserver observer_{&tenants_};
  std::unique_ptr<obs::TelemetryServer> server_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> aggregate_sequence_{0};  ///< per-request DP noise stream
};

}  // namespace ppdp::serve

#endif  // PPDP_SERVE_SERVE_APP_H_
