#include "serve/serve_app.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "dp/aggregation.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "graph/graph_generators.h"
#include "graph/social_graph.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace ppdp::serve {

namespace {

/// JSON error envelope every non-200 serve response uses, so clients parse
/// one shape regardless of which guardrail fired.
void JsonError(obs::HttpResponse* response, int status, const std::string& error,
               JsonValue detail = JsonValue::Null()) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.serve.error.v1"));
  doc.Set("error", JsonValue::String(error));
  if (!detail.is_null()) doc.Set("detail", std::move(detail));
  response->Json(status, doc);
}

Result<tradeoff::Strategy> ParseStrategy(const std::string& name) {
  if (name == "attribute_removal") return tradeoff::Strategy::kAttributeRemoval;
  if (name == "attribute_perturbing") return tradeoff::Strategy::kAttributePerturbing;
  if (name == "link_removal") return tradeoff::Strategy::kLinkRemoval;
  if (name == "random_link_removal") return tradeoff::Strategy::kRandomLinkRemoval;
  if (name == "collective") return tradeoff::Strategy::kCollectiveSanitization;
  return Status::InvalidArgument("unknown strategy: " + name);
}

const char* StrategyTag(tradeoff::Strategy strategy) {
  switch (strategy) {
    case tradeoff::Strategy::kAttributeRemoval: return "attribute_removal";
    case tradeoff::Strategy::kAttributePerturbing: return "attribute_perturbing";
    case tradeoff::Strategy::kLinkRemoval: return "link_removal";
    case tradeoff::Strategy::kRandomLinkRemoval: return "random_link_removal";
    case tradeoff::Strategy::kCollectiveSanitization: return "collective";
  }
  return "unknown";
}

/// Parses the request's optional "config" object into a PublishConfig.
Result<core::PublishConfig> ParsePublishConfig(const JsonValue& body) {
  core::PublishConfig config;
  const JsonValue* config_json = body.Find("config");
  if (config_json == nullptr) return config;
  if (!config_json->is_object()) return Status::InvalidArgument("config must be an object");
  config.delta = config_json->GetNumberOr("delta", config.delta);
  config.utility_category = static_cast<size_t>(
      config_json->GetNumberOr("utility_category", static_cast<double>(config.utility_category)));
  config.num_attributes = static_cast<size_t>(
      config_json->GetNumberOr("num_attributes", static_cast<double>(config.num_attributes)));
  config.num_links = static_cast<size_t>(
      config_json->GetNumberOr("num_links", static_cast<double>(config.num_links)));
  if (config_json->Has("strategy")) {
    PPDP_ASSIGN_OR_RETURN(config.strategy,
                          ParseStrategy(config_json->GetStringOr("strategy", "")));
  }
  if (const JsonValue* traits = config_json->Find("target_traits"); traits != nullptr) {
    if (!traits->is_array()) return Status::InvalidArgument("target_traits must be an array");
    for (size_t i = 0; i < traits->size(); ++i) {
      if (!traits->at(i).is_number() || traits->at(i).as_number() < 0) {
        return Status::InvalidArgument("target_traits entries must be non-negative numbers");
      }
      config.target_traits.push_back(static_cast<size_t>(traits->at(i).as_number()));
    }
  }
  return config;
}

/// Canonical JSON of a PublishConfig — the coalescing key. Built from the
/// *parsed* config, so two bodies that spell the same config differently
/// (field order, omitted defaults) still coalesce.
std::string CanonicalConfigKey(core::PublisherKind kind, const core::PublishConfig& config) {
  JsonValue doc = JsonValue::Object();
  doc.Set("kind", JsonValue::String(core::PublisherKindName(kind)));
  doc.Set("delta", JsonValue::Number(config.delta));
  doc.Set("utility_category", JsonValue::Number(static_cast<double>(config.utility_category)));
  doc.Set("num_attributes", JsonValue::Number(static_cast<double>(config.num_attributes)));
  doc.Set("num_links", JsonValue::Number(static_cast<double>(config.num_links)));
  doc.Set("strategy", JsonValue::String(StrategyTag(config.strategy)));
  JsonValue traits = JsonValue::Array();
  for (size_t trait : config.target_traits) {
    traits.Append(JsonValue::Number(static_cast<double>(trait)));
  }
  doc.Set("target_traits", std::move(traits));
  return doc.Dump();
}

obs::Histogram& RequestHistogram() {
  static obs::Histogram& histogram = obs::MetricsRegistry::Global().histogram(
      "serve.request.seconds",
      {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
       2.5});
  return histogram;
}

/// The client's optional "deadline_ms" as an absolute MonotonicSeconds
/// timestamp, capped by the server-side maximum. 0 = no deadline declared.
double RequestDeadline(const JsonValue& body, double started, double max_seconds) {
  const double deadline_ms = body.GetNumberOr("deadline_ms", 0.0);
  if (deadline_ms <= 0.0) return 0.0;
  return started + std::min(deadline_ms / 1000.0, max_seconds);
}

obs::Counter& DeadlineExceededCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("serve.deadline.exceeded");
  return counter;
}

obs::Counter& WalUnavailableCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("serve.wal.unavailable");
  return counter;
}

}  // namespace

ServeApp::ServeApp(const ServeOptions& options, std::vector<int64_t> degrees,
                   size_t degree_domain, std::unique_ptr<core::Publisher> social,
                   std::unique_ptr<core::Publisher> tradeoff,
                   std::unique_ptr<core::Publisher> genome)
    : options_(options),
      degrees_(std::move(degrees)),
      degree_domain_(degree_domain),
      social_(std::move(social)),
      tradeoff_(std::move(tradeoff)),
      genome_(std::move(genome)),
      tenants_(TenantRegistry::Options{options.tenant_budget, options.max_tenants}),
      admission_(AdmissionController::Options{options.max_pending, /*pressure_window=*/5.0}) {
  obs::TelemetryServer::Options server_options;
  server_options.port = options_.port;
  server_options.max_connections = options_.http_max_conns;
  server_options.max_request_body_bytes = options_.max_request_body_bytes;
  server_options.seed = options_.seed;
  server_options.threads = options_.threads;
  server_options.flags["graph_scale"] = std::to_string(options_.graph_scale);
  server_options.flags["tenant_budget"] = std::to_string(options_.tenant_budget);
  server_options.flags["max_pending"] = std::to_string(options_.max_pending);
  server_ = std::make_unique<obs::TelemetryServer>(std::move(server_options));
  RegisterRoutes();
  obs::RegisterStatuszSection("serve", [this] { return StatuszSection(); });
}

ServeApp::~ServeApp() {
  Stop();
  // The statusz section provider captures `this`; replace it with an inert
  // one instead of leaving a dangling callback behind.
  obs::RegisterStatuszSection("serve", [] { return JsonValue::Null(); });
}

Result<std::unique_ptr<ServeApp>> ServeApp::Create(const ServeOptions& options) {
  if (options.graph_scale <= 0.0) {
    return Status::InvalidArgument("graph_scale must be positive");
  }
  if (options.tenant_budget <= 0.0) {
    return Status::InvalidArgument("tenant_budget must be positive");
  }
  if (options.max_pending < 1) {
    return Status::InvalidArgument("max_pending must be >= 1");
  }
  if (options.request_deadline_seconds <= 0.0) {
    return Status::InvalidArgument("request_deadline_seconds must be positive");
  }

  // Load the corpora once; every request serves from these in-memory copies.
  graph::SocialGraph graph =
      graph::GenerateSyntheticGraph(graph::CaltechLikeConfig(options.graph_scale, options.seed));
  std::vector<int64_t> degrees;
  degrees.reserve(graph.num_nodes());
  size_t max_degree = 0;
  for (size_t node = 0; node < graph.num_nodes(); ++node) {
    const size_t degree = graph.Degree(node);
    max_degree = std::max(max_degree, degree);
    degrees.push_back(static_cast<int64_t>(degree));
  }

  core::PublisherOptions publisher_options;
  publisher_options.seed = options.seed;
  publisher_options.threads = options.threads;

  PPDP_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Publisher> social,
      core::CreatePublisher(core::PublisherKind::kSocial, graph, publisher_options));
  PPDP_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Publisher> tradeoff,
      core::CreatePublisher(core::PublisherKind::kTradeoff, graph, publisher_options));

  Rng genome_rng(options.seed);
  genomics::SyntheticCatalogConfig catalog_config;
  catalog_config.num_snps = options.genome_snps;
  genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(catalog_config, genome_rng);
  // Digest the association table before the catalog is moved into the
  // publisher: it pins the genome corpus for the startup summary.
  uint64_t genome_digest = kFnv1aBasis;
  for (const genomics::SnpTraitAssociation& assoc : catalog.associations()) {
    genome_digest = Fnv1a64(&assoc.snp, sizeof(assoc.snp), genome_digest);
    genome_digest = Fnv1a64(&assoc.trait, sizeof(assoc.trait), genome_digest);
    genome_digest = Fnv1a64(&assoc.control_raf, sizeof(assoc.control_raf), genome_digest);
    genome_digest = Fnv1a64(&assoc.odds_ratio, sizeof(assoc.odds_ratio), genome_digest);
  }
  genomics::Individual person = genomics::SampleIndividual(catalog, genome_rng);
  genomics::TargetView view = genomics::MakeTargetView(catalog, person, {});
  PPDP_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Publisher> genome,
      core::CreatePublisher(std::move(catalog), std::move(view), publisher_options));

  PPDP_LOG(INFO) << "serve corpora loaded" << obs::Field("graph_nodes", graph.num_nodes())
                 << obs::Field("degree_domain", max_degree + 1)
                 << obs::Field("genome_snps", options.genome_snps);

  // The degree sequence pins the graph corpus.
  const uint64_t graph_digest = Fnv1a64(degrees.data(), degrees.size() * sizeof(int64_t));

  std::unique_ptr<ServeApp> app(new ServeApp(options, std::move(degrees), max_degree + 1,
                                             std::move(social), std::move(tradeoff),
                                             std::move(genome)));
  app->graph_digest_ = graph_digest;
  app->genome_digest_ = genome_digest;

  if (!options.ledger_wal.empty()) {
    obs::LedgerWal::Options wal_options;
    wal_options.path = options.ledger_wal;
    wal_options.sync = options.ledger_sync;
    PPDP_ASSIGN_OR_RETURN(app->wal_, obs::LedgerWal::Open(wal_options));
    PPDP_RETURN_IF_ERROR(app->tenants_.AttachWal(app->wal_.get()));
  }

  PPDP_RETURN_IF_ERROR(app->observer_.Configure(options.access_log, options.access_log_max_mb,
                                                 options.slow_request_ms));

  // The SLO engine is always on: custom rules from --slo_config, the
  // built-in defaults otherwise. Every completed request feeds it via the
  // observer; the spending handlers feed queue depth and ε burn directly.
  obs::SloEngine::Options slo_options;
  if (!options.slo_config.empty()) {
    PPDP_ASSIGN_OR_RETURN(slo_options.rules, obs::LoadSloConfig(options.slo_config));
  }
  slo_options.eval_period_seconds = options.slo_eval_period_seconds;
  slo_options.alert_log = options.alert_log;
  slo_options.alert_log_max_mb = options.alert_log_max_mb;
  slo_options.max_tenants = options.max_tenants;
  PPDP_ASSIGN_OR_RETURN(app->slo_, obs::SloEngine::Create(std::move(slo_options)));
  app->observer_.AttachSloEngine(app->slo_.get());
  return app;
}

Status ServeApp::Start() { return server_->Start(); }

void ServeApp::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);
  // Drain: requests already past the draining check finish normally (their
  // sockets stay open); new arrivals are answered 503 by ServeRequest.
  const double deadline = obs::MonotonicSeconds() + options_.drain_timeout_seconds;
  while (inflight() > 0 && obs::MonotonicSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (const size_t left = inflight(); left > 0) {
    PPDP_LOG(WARN) << "serve drain timeout" << obs::Field("inflight", left);
  }
  server_->Stop();
  // Flush the kBatch WAL tail so a clean shutdown loses nothing; best
  // effort (a poisoned log already refused everything after the failure).
  if (wal_ != nullptr) (void)wal_->Sync();
}

core::Publisher* ServeApp::PublisherFor(core::PublisherKind kind) const {
  switch (kind) {
    case core::PublisherKind::kSocial: return social_.get();
    case core::PublisherKind::kTradeoff: return tradeoff_.get();
    case core::PublisherKind::kGenome: return genome_.get();
  }
  return nullptr;
}

void ServeApp::RegisterRoutes() {
  auto traced = [this](std::string path, std::string counter, Handler handler) {
    server_->RegisterHandler(
        "POST", path,
        [this, path, counter, handler](const obs::HttpRequest& request,
                                       obs::HttpResponse* response) {
          ServeRequest(path, counter, handler, request, response);
        });
  };
  traced("/v1/publish", "serve.publish.requests", &ServeApp::HandlePublish);
  traced("/v1/audit", "serve.audit.requests", &ServeApp::HandleAudit);
  traced("/v1/dp/aggregate", "serve.aggregate.requests", &ServeApp::HandleAggregate);
  server_->RegisterHandler("GET", "/requestz",
                           [this](const obs::HttpRequest& request, obs::HttpResponse* response) {
                             HandleRequestz(request, response);
                           });
  // Health folds in serving state: firing alerts (tri-state via the SLO
  // engine), ledger rejections (TelemetryDegraded already sees tenant
  // ledgers via SnapshotAll), queue pressure, WAL poisoning, draining.
  server_->RegisterHandler("GET", "/healthz",
                           [this](const obs::HttpRequest& request, obs::HttpResponse* response) {
                             HandleHealthz(request, response);
                           });
  // Both SLO surfaces evaluate on read, so a curl sees current verdicts
  // even when no request traffic is driving EvaluateIfDue.
  server_->RegisterHandler("GET", "/alertz",
                           [this](const obs::HttpRequest&, obs::HttpResponse* response) {
                             slo_->Evaluate();
                             response->Json(200, slo_->AlertzDocument());
                           });
  server_->RegisterHandler("GET", "/sloz",
                           [this](const obs::HttpRequest&, obs::HttpResponse* response) {
                             slo_->Evaluate();
                             response->Json(200, slo_->SlozDocument());
                           });
  server_->RegisterHandler("GET", "/",
                           [](const obs::HttpRequest& request, obs::HttpResponse* response) {
                             if (request.path != "/" && !request.path.empty()) {
                               response->Text(404, "not found: " + request.path + "\n");
                               return;
                             }
                             response->Text(
                                 200,
                                 "ppdp serve endpoints:\n"
                                 "  POST /v1/publish       run a publisher (tenant, kind, "
                                 "epsilon, config)\n"
                                 "  POST /v1/audit         tenant ledger audit (tenant)\n"
                                 "  POST /v1/dp/aggregate  DP aggregate over the corpus "
                                 "(tenant, op, epsilon)\n"
                                 "telemetry endpoints:\n"
                                 "  /metrics /healthz /statusz /flightz /profilez "
                                 "/requestz /alertz /sloz\n");
                           });
}

ServeApp::HealthVerdict ServeApp::Health() const {
  HealthVerdict verdict;
  auto add = [&verdict](std::string name, int severity, std::string detail) {
    verdict.severity = std::max(verdict.severity, severity);
    verdict.conditions.push_back(HealthCondition{std::move(name), severity, std::move(detail)});
  };
  for (const std::string& alert : slo_->FiringAlerts()) {
    // "rule" or "rule/tenant"; the rule part maps back to its severity.
    const std::string rule = alert.substr(0, alert.find('/'));
    int severity = 1;
    for (const obs::AlertRule& candidate : slo_->rules()) {
      if (candidate.name == rule) {
        severity = candidate.severity == obs::AlertRule::Severity::kPage ? 2 : 1;
        break;
      }
    }
    add("alert." + alert, severity, "alert firing");
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (const uint64_t gave_up = registry.counter("channel.gave_up").value(); gave_up > 0) {
    add("channel.gave_up", 1, std::to_string(gave_up) + " channel give-ups");
  }
  if (const uint64_t degraded_estimates =
          registry.counter("iot.server.degraded_estimates").value();
      degraded_estimates > 0) {
    add("iot.degraded_estimates", 1, std::to_string(degraded_estimates) + " degraded estimates");
  }
  for (const auto& [name, snapshot] : obs::PrivacyLedger::SnapshotAll()) {
    if (snapshot.rejected > 0) {
      add("ledger." + name + ".rejections",
          1, std::to_string(snapshot.rejected) + " spend rejections");
    }
  }
  if (admission_.UnderPressure()) {
    add("admission.pressure", 1,
        std::to_string(admission_.pending()) + "/" + std::to_string(admission_.max_pending()) +
            " pending");
  }
  if (draining()) add("draining", 1, "shutdown drain in progress");
  if (wal_ != nullptr && wal_->poisoned()) {
    add("ledger_wal.poisoned", 1, "WAL refused an append; durable spends disabled");
  }
  // A flight dump marks that a postmortem artifact exists — worth naming,
  // but it describes a past event, not current serving health.
  if (obs::FlightRecorder::Global().dumped()) {
    add("flight.dumped", 0, "flight recorder dumped to " +
                                obs::FlightRecorder::Global().dump_path());
  }
  return verdict;
}

void ServeApp::HandleHealthz(const obs::HttpRequest& request, obs::HttpResponse* response) {
  slo_->EvaluateIfDue();
  const HealthVerdict verdict = Health();
  const char* text = verdict.severity >= 2 ? "failing" : verdict.severity == 1 ? "degraded" : "ok";
  if (request.QueryIntOr("verbose", 0) == 0) {
    // The plain body existing scrapers grep: one word, trailing newline.
    response->Text(200, std::string(text) + "\n");
    return;
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.healthz.v1"));
  doc.Set("health", JsonValue::String(text));
  JsonValue conditions = JsonValue::Array();
  for (const HealthCondition& condition : verdict.conditions) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(condition.name));
    entry.Set("severity", JsonValue::String(condition.severity >= 2   ? "failing"
                                            : condition.severity == 1 ? "degraded"
                                                                      : "info"));
    entry.Set("detail", JsonValue::String(condition.detail));
    conditions.Append(std::move(entry));
  }
  doc.Set("conditions", std::move(conditions));
  response->Json(200, doc);
}

void ServeApp::ObserveQueueDepth() {
  const int max_pending = std::max(admission_.max_pending(), 1);
  slo_->RecordQueueDepth(static_cast<double>(admission_.pending()) /
                         static_cast<double>(max_pending));
}

obs::PrivacyLedger* ServeApp::AdmitAndCharge(RequestContext* context, double deadline,
                                             std::string_view label, std::string_view mechanism,
                                             double epsilon, AdmissionSlot* slot,
                                             obs::HttpResponse* response) {
  const std::string& tenant = context->record.tenant;
  static obs::Counter& budget_rejected =
      obs::MetricsRegistry::Global().counter("serve.budget.rejected");
  // Admission before spending: a request refused for queue pressure must
  // not have charged its tenant. A declared deadline waits in line for a
  // slot until it expires (504); no deadline keeps the immediate 429.
  StageTimer admit_stage(context, "serve.admission.queue");
  *slot = deadline > 0.0 ? admission_.TryAdmitUntil(deadline) : admission_.TryAdmit();
  admit_stage.Stop();
  ObserveQueueDepth();
  if (!slot->held()) {
    if (deadline > 0.0) {
      DeadlineExceededCounter().Increment();
      JsonError(response, 504, "deadline exceeded while queued for admission");
      return nullptr;
    }
    JsonValue detail = JsonValue::Object();
    detail.Set("pending", JsonValue::Number(static_cast<double>(admission_.pending())));
    detail.Set("max_pending", JsonValue::Number(static_cast<double>(admission_.max_pending())));
    JsonError(response, 429, "admission queue full", std::move(detail));
    return nullptr;
  }
  if (deadline > 0.0 && obs::MonotonicSeconds() >= deadline) {
    // Expired before spending: the tenant must not be charged for work the
    // client has already given up on.
    DeadlineExceededCounter().Increment();
    JsonError(response, 504, "deadline exceeded");
    return nullptr;
  }

  StageTimer spend_stage(context, "serve.ledger.spend");
  Result<obs::PrivacyLedger*> ledger = tenants_.ForTenant(tenant);
  if (!ledger.ok()) {
    const int status = ledger.status().code() == StatusCode::kFailedPrecondition ? 403 : 400;
    JsonError(response, status, ledger.status().ToString());
    return nullptr;
  }
  // Budget-once: each request charges its own tenant exactly once, before
  // any coalescing — a coalesced batch spends N tenants' ε for one run. With
  // a WAL attached the ledger logs the charge ahead of admitting it, so a
  // crash here replays it as spent.
  Status spend = (*ledger)->Spend(label, mechanism, epsilon);
  spend_stage.Stop();
  if (!spend.ok()) {
    if (spend.code() == StatusCode::kUnavailable) {
      if (obs::PrivacyLedger::IsWalRefusal(spend)) WalUnavailableCounter().Increment();
      JsonError(response, 503, spend.ToString());
      return nullptr;
    }
    budget_rejected.Increment();
    obs::PrivacyLedger::BudgetSnapshot snapshot = (*ledger)->snapshot();
    JsonValue detail = JsonValue::Object();
    detail.Set("tenant", JsonValue::String(tenant));
    detail.Set("requested_epsilon", JsonValue::Number(epsilon));
    detail.Set("remaining_epsilon", JsonValue::Number(snapshot.remaining));
    detail.Set("budget", JsonValue::Number(snapshot.budget));
    JsonError(response, 403, "privacy budget exhausted", std::move(detail));
    return nullptr;
  }
  context->record.epsilon = epsilon;
  // Feed the tenant's burn-rate window with the post-spend balance, then
  // evaluate: the ledger-burn rule is what pages *before* the first 403.
  const obs::PrivacyLedger::BudgetSnapshot snapshot = (*ledger)->snapshot();
  slo_->RecordSpend(tenant, epsilon, snapshot.remaining, snapshot.budget);
  slo_->EvaluateIfDue();
  return *ledger;
}

void ServeApp::ServeRequest(const std::string& endpoint, const std::string& counter,
                            Handler handler, const obs::HttpRequest& request,
                            obs::HttpResponse* response) {
  // Looked up per request, so an endpoint's counter appears in /metrics
  // only once the endpoint has been called.
  obs::MetricsRegistry::Global().counter(counter).Increment();
  RequestContext context(endpoint, request);
  response->SetHeader("traceparent", context.ResponseTraceparent());
  // Listed before the draining check, so Stop's drain sees every request
  // that got past it.
  observer_.Begin(&context);
  if (draining()) {
    JsonError(response, 503, "draining");
  } else {
    StageTimer parse(&context, "serve.parse");
    Result<JsonValue> body = request.Json();
    if (!body.ok()) {
      JsonError(response, 400, "invalid JSON body: " + body.status().ToString());
    } else {
      context.record.tenant = body->GetStringOr("tenant", "");
      (this->*handler)(*body, &context, &parse, response);
    }
  }
  if (response->status() == 200) {
    RequestHistogram().Observe(obs::MonotonicSeconds() - context.start_seconds);
  }
  context.record.status = response->status();
  context.record.bytes_out = response->body().size();
  observer_.Complete(&context);
}

void ServeApp::HandlePublish(const JsonValue& body, RequestContext* context, StageTimer* parse,
                             obs::HttpResponse* response) {
  static obs::Counter& runs = obs::MetricsRegistry::Global().counter("serve.publish.runs");
  static obs::Counter& fanout =
      obs::MetricsRegistry::Global().counter("serve.coalesced.fanout");
  const double epsilon = body.GetNumberOr("epsilon", 0.5);
  const double deadline =
      RequestDeadline(body, context->start_seconds, options_.request_deadline_seconds);
  Result<core::PublisherKind> kind = core::ParsePublisherKind(body.GetStringOr("kind", "social"));
  if (!kind.ok()) {
    JsonError(response, 400, kind.status().ToString());
    return;
  }
  Result<core::PublishConfig> config = ParsePublishConfig(body);
  if (!config.ok()) {
    JsonError(response, 400, config.status().ToString());
    return;
  }
  parse->Stop();

  AdmissionSlot slot;
  obs::PrivacyLedger* ledger = AdmitAndCharge(context, deadline, core::PublisherKindName(*kind),
                                              "publish", epsilon, &slot, response);
  if (ledger == nullptr) return;

  core::Publisher* publisher = PublisherFor(*kind);
  const core::PublishConfig publish_config = *config;
  BatchCoalescer::Outcome outcome =
      coalescer_.Run(CanonicalConfigKey(*kind, publish_config), context,
                     [publisher, publish_config]() -> Result<core::PublishOutput> {
                       // Chaos hook for the slow-request capture path: an
                       // armed delay here stretches serve.publish, which
                       // --slow_request_ms then flags into FlightRecorder.
                       const fault::FaultDecision decision =
                           PPDP_FAULT_POINT("serve.publish", fault::kMaskDelay);
                       if (decision.delay()) {
                         std::this_thread::sleep_for(
                             std::chrono::duration<double, std::milli>(decision.delay_ms));
                       }
                       // Inline on the connection thread: the publisher's
                       // internal ParallelFor treats the caller as one
                       // execution thread and enlists pool workers as
                       // helpers, which is only safe when the caller is not
                       // itself a pool worker. Submitting the publish to the
                       // pool and blocking on a future deadlocks once every
                       // worker is parked in that wait (the helpers they
                       // enqueued can never start). Connection threads are
                       // bounded by http_max_conns, so this keeps
                       // concurrency capped without parking a pool thread.
                       return publisher->Publish(publish_config);
                     });
  context->record.coalesce = outcome.leader ? "leader" : "waiter";
  if (outcome.leader) {
    runs.Increment();
  } else {
    fanout.Increment();
    context->record.leader_request_id = outcome.leader_request_id;
  }
  if (!outcome.result.ok()) {
    JsonError(response, 400, outcome.result.status().ToString());
    return;
  }

  StageTimer write_stage(context, "serve.write");
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.serve.publish.v1"));
  doc.Set("request_id", JsonValue::String(context->record.request_id));
  doc.Set("tenant", JsonValue::String(context->record.tenant));
  doc.Set("kind", JsonValue::String(core::PublisherKindName(*kind)));
  doc.Set("coalesced", JsonValue::Bool(!outcome.leader));
  doc.Set("batch_size", JsonValue::Number(static_cast<double>(outcome.batch_size)));
  doc.Set("epsilon_spent", JsonValue::Number(epsilon));
  doc.Set("remaining_epsilon", JsonValue::Number(ledger->remaining()));
  doc.Set("output", outcome.result->ToJson());
  response->Json(200, doc);
}

void ServeApp::HandleAudit(const JsonValue&, RequestContext* context, StageTimer* parse,
                           obs::HttpResponse* response) {
  const std::string& tenant = context->record.tenant;
  Status valid = TenantRegistry::ValidateName(tenant);
  parse->Stop();
  if (!valid.ok()) {
    JsonError(response, 400, valid.ToString());
    return;
  }
  obs::PrivacyLedger* ledger = tenants_.FindTenant(tenant);
  if (ledger == nullptr) {
    JsonError(response, 404, "unknown tenant: " + tenant);
    return;
  }

  StageTimer write_stage(context, "serve.write");
  obs::PrivacyLedger::BudgetSnapshot snapshot = ledger->snapshot();
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.serve.audit.v1"));
  doc.Set("request_id", JsonValue::String(context->record.request_id));
  doc.Set("tenant", JsonValue::String(tenant));
  doc.Set("budget", JsonValue::Number(snapshot.budget));
  doc.Set("spent", JsonValue::Number(snapshot.spent));
  doc.Set("remaining", JsonValue::Number(snapshot.remaining));
  doc.Set("rejected", JsonValue::Number(static_cast<double>(snapshot.rejected)));
  JsonValue entries = JsonValue::Array();
  for (const obs::PrivacyLedger::Entry& entry : ledger->entries()) {
    JsonValue entry_json = JsonValue::Object();
    entry_json.Set("label", JsonValue::String(entry.label));
    entry_json.Set("mechanism", JsonValue::String(entry.mechanism));
    entry_json.Set("calls", JsonValue::Number(static_cast<double>(entry.calls)));
    entry_json.Set("total_epsilon", JsonValue::Number(entry.total_epsilon));
    entries.Append(std::move(entry_json));
  }
  doc.Set("entries", entries);
  response->Json(200, doc);
}

void ServeApp::HandleAggregate(const JsonValue& body, RequestContext* context, StageTimer* parse,
                               obs::HttpResponse* response) {
  const std::string op = body.GetStringOr("op", "histogram");
  const double epsilon = body.GetNumberOr("epsilon", 0.1);
  const double deadline =
      RequestDeadline(body, context->start_seconds, options_.request_deadline_seconds);
  // Every input check runs before the charge: a refused request is never
  // charged ε.
  const double q = body.GetNumberOr("q", 0.5);
  int64_t lo = 0, hi = 0;
  if (op == "range_count") {
    lo = static_cast<int64_t>(body.GetNumberOr("lo", 0));
    hi = static_cast<int64_t>(body.GetNumberOr("hi", static_cast<double>(degree_domain_ - 1)));
    if (lo < 0 || hi < lo || static_cast<size_t>(hi) >= degree_domain_) {
      JsonError(response, 400, "range [lo, hi] out of degree domain");
      return;
    }
  } else if (op == "quantile" && !(q >= 0.0 && q <= 1.0)) {
    JsonError(response, 400, Status::InvalidArgument("q must be in [0,1]").ToString());
    return;
  } else if (op != "histogram" && op != "quantile") {
    JsonError(response, 400, "unknown op: " + op +
                                 " (expected histogram | quantile | range_count)");
    return;
  }
  parse->Stop();

  AdmissionSlot slot;
  obs::PrivacyLedger* ledger =
      AdmitAndCharge(context, deadline, "dp.aggregate", op, epsilon, &slot, response);
  if (ledger == nullptr) return;

  // Fresh noise per request: the sequence number keeps streams disjoint
  // while the base seed keeps a daemon run reproducible end to end.
  StageTimer publish_stage(context, "serve.publish");
  Rng rng(options_.seed + 0x9e3779b97f4a7c15ULL *
                              (1 + aggregate_sequence_.fetch_add(1, std::memory_order_relaxed)));
  JsonValue result;
  if (op == "histogram") {
    std::vector<double> buckets = dp::NoisyHistogram(degrees_, degree_domain_, epsilon, rng);
    result = JsonValue::Array();
    for (double bucket : buckets) result.Append(JsonValue::Number(bucket));
  } else if (op == "quantile") {
    Result<int64_t> quantile = dp::PrivateQuantile(degrees_, degree_domain_, q, epsilon, rng);
    if (!quantile.ok()) {
      JsonError(response, 400, quantile.status().ToString());
      return;
    }
    result = JsonValue::Number(static_cast<double>(*quantile));
  } else {
    size_t count = 0;
    for (int64_t degree : degrees_) {
      if (degree >= lo && degree <= hi) ++count;
    }
    result = JsonValue::Number(dp::NoisyCount(count, epsilon, rng));
  }
  publish_stage.Stop();

  StageTimer write_stage(context, "serve.write");
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.serve.aggregate.v1"));
  doc.Set("request_id", JsonValue::String(context->record.request_id));
  doc.Set("tenant", JsonValue::String(context->record.tenant));
  doc.Set("op", JsonValue::String(op));
  doc.Set("epsilon_spent", JsonValue::Number(epsilon));
  doc.Set("remaining_epsilon", JsonValue::Number(ledger->remaining()));
  doc.Set("result", std::move(result));
  response->Json(200, doc);
}

void ServeApp::HandleRequestz(const obs::HttpRequest& request, obs::HttpResponse* response) {
  const std::string tenant = request.QueryStringOr("tenant", "");
  const int min_ms = request.QueryIntOr("min_ms", 0);
  response->Json(200, observer_.RequestzDocument(tenant, static_cast<double>(min_ms)));
}

JsonValue ServeApp::StartupSummary() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.serve.startup.v1"));
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(graph_digest_));
  doc.Set("graph_digest", JsonValue::String(digest));
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(genome_digest_));
  doc.Set("genome_digest", JsonValue::String(digest));
  doc.Set("tenants", JsonValue::Number(static_cast<double>(tenants_.size())));
  doc.Set("tenant_budget", JsonValue::Number(options_.tenant_budget));
  doc.Set("ledger_wal", JsonValue::String(options_.ledger_wal));
  if (wal_ != nullptr) {
    doc.Set("ledger_sync", JsonValue::String(
        wal_->sync_policy() == obs::LedgerWal::SyncPolicy::kAlways ? "always" : "batch"));
    const obs::WalRecovery& recovery = wal_->recovery();
    doc.Set("wal_records", JsonValue::Number(static_cast<double>(recovery.records_read)));
    doc.Set("wal_tail_truncated_bytes",
            JsonValue::Number(static_cast<double>(recovery.truncated_bytes)));
    JsonValue recovered = JsonValue::Object();
    for (const auto& [tenant, epsilon] : tenants_.RecoveredEpsilon()) {
      recovered.Set(tenant, JsonValue::Number(epsilon));
    }
    doc.Set("recovered_epsilon", std::move(recovered));
  }
  return doc;
}

JsonValue ServeApp::StatuszSection() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("tenants", JsonValue::Number(static_cast<double>(tenants_.size())));
  doc.Set("inflight", JsonValue::Number(static_cast<double>(inflight())));
  doc.Set("queue_pending", JsonValue::Number(static_cast<double>(admission_.pending())));
  doc.Set("queue_max", JsonValue::Number(static_cast<double>(admission_.max_pending())));
  doc.Set("queue_admitted", JsonValue::Number(static_cast<double>(admission_.admitted())));
  doc.Set("queue_rejected", JsonValue::Number(static_cast<double>(admission_.rejected())));
  doc.Set("batches_run", JsonValue::Number(static_cast<double>(coalescer_.batches_run())));
  doc.Set("followers_served",
          JsonValue::Number(static_cast<double>(coalescer_.followers_served())));
  doc.Set("draining", JsonValue::Bool(draining()));
  if (slo_ != nullptr) {
    JsonValue slo = JsonValue::Object();
    slo.Set("rules", JsonValue::Number(static_cast<double>(slo_->rules().size())));
    slo.Set("transitions", JsonValue::Number(static_cast<double>(slo_->transitions_total())));
    JsonValue firing = JsonValue::Array();
    for (const std::string& alert : slo_->FiringAlerts()) {
      firing.Append(JsonValue::String(alert));
    }
    slo.Set("firing", std::move(firing));
    if (const obs::RotatingJsonlLog* log = slo_->alert_log(); log != nullptr) {
      JsonValue alert_log = JsonValue::Object();
      alert_log.Set("path", JsonValue::String(options_.alert_log));
      alert_log.Set("lines", JsonValue::Number(static_cast<double>(log->lines_written())));
      alert_log.Set("rotations", JsonValue::Number(static_cast<double>(log->rotations())));
      slo.Set("alert_log", std::move(alert_log));
    }
    doc.Set("slo", std::move(slo));
  }
  if (wal_ != nullptr) {
    JsonValue wal = JsonValue::Object();
    wal.Set("path", JsonValue::String(wal_->path()));
    wal.Set("appends", JsonValue::Number(static_cast<double>(wal_->appends())));
    wal.Set("fsyncs", JsonValue::Number(static_cast<double>(wal_->syncs())));
    wal.Set("poisoned", JsonValue::Bool(wal_->poisoned()));
    doc.Set("ledger_wal", std::move(wal));
  }
  return doc;
}

}  // namespace ppdp::serve
