#include "serve/request_trace.h"

#include <cstdio>
#include <random>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/tenants.h"

namespace ppdp::serve {

namespace {

bool IsLowerHex(char c) { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'); }

bool AllLowerHex(std::string_view s) {
  for (char c : s) {
    if (!IsLowerHex(c)) return false;
  }
  return true;
}

bool AllZero(std::string_view s) {
  for (char c : s) {
    if (c != '0') return false;
  }
  return true;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Request ids identify requests across processes, so — unlike every
/// experiment-facing Rng in this repo — they mix in one draw of real
/// entropy per process. Uniqueness within the process then comes from an
/// atomic counter; SplitMix64 whitens the sequence.
uint64_t NextIdWord() {
  static const uint64_t salt = [] {
    std::random_device device;
    return (static_cast<uint64_t>(device()) << 32) ^ static_cast<uint64_t>(device());
  }();
  static std::atomic<uint64_t> counter{0};
  return SplitMix64(salt + counter.fetch_add(1, std::memory_order_relaxed));
}

std::string HexWord(uint64_t word) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(word));
  return std::string(buffer);
}

const std::vector<double>& TenantLatencyBoundsMs() {
  static const std::vector<double> bounds = {0.1, 0.25, 0.5,  1.0,  2.5,   5.0,   10.0,
                                             25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0};
  return bounds;
}

}  // namespace

bool ParseTraceparent(std::string_view header, std::string* trace_id) {
  // 00-<32 hex>-<16 hex>-<2 hex> = 55 bytes. Future versions may be longer,
  // but we only speak version 00; anything else is ignored, never an error.
  if (header.size() != 55) return false;
  if (header.substr(0, 2) != "00") return false;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') return false;
  const std::string_view tid = header.substr(3, 32);
  const std::string_view parent = header.substr(36, 16);
  const std::string_view flags = header.substr(53, 2);
  if (!AllLowerHex(tid) || !AllLowerHex(parent) || !AllLowerHex(flags)) return false;
  if (AllZero(tid) || AllZero(parent)) return false;  // spec: all-zero ids are invalid
  *trace_id = std::string(tid);
  return true;
}

std::string FormatTraceparent(const std::string& trace_id, const std::string& span_id) {
  return "00-" + trace_id + "-" + span_id + "-01";
}

std::string GenerateTraceId() {
  std::string id = HexWord(NextIdWord()) + HexWord(NextIdWord());
  if (AllZero(id)) id[31] = '1';  // the spec's one forbidden value
  return id;
}

std::string GenerateSpanId() {
  std::string id = HexWord(NextIdWord());
  if (AllZero(id)) id[15] = '1';
  return id;
}

double RequestRecord::StageMicrosSum() const {
  double sum = 0.0;
  for (const StageMicros& stage : stages) sum += stage.micros;
  return sum;
}

JsonValue RequestRecord::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.access.v1"));
  doc.Set("request_id", JsonValue::String(request_id));
  doc.Set("span_id", JsonValue::String(span_id));
  doc.Set("tenant", JsonValue::String(tenant));
  doc.Set("endpoint", JsonValue::String(endpoint));
  doc.Set("status", JsonValue::Number(static_cast<double>(status)));
  doc.Set("epsilon", JsonValue::Number(epsilon));
  doc.Set("total_micros", JsonValue::Number(total_micros));
  doc.Set("bytes_in", JsonValue::Number(static_cast<double>(bytes_in)));
  doc.Set("bytes_out", JsonValue::Number(static_cast<double>(bytes_out)));
  doc.Set("coalesce", JsonValue::String(coalesce));
  if (!leader_request_id.empty()) {
    doc.Set("leader_request_id", JsonValue::String(leader_request_id));
  }
  JsonValue stage_obj = JsonValue::Object();
  for (const StageMicros& stage : stages) {
    stage_obj.Set(stage.name, JsonValue::Number(stage.micros));
  }
  doc.Set("stages", std::move(stage_obj));
  return doc;
}

Status ValidateAccessRecord(const JsonValue& doc, RequestRecord* record) {
  auto invalid = [](const std::string& why) { return Status::InvalidArgument(why); };
  auto is_trace_id = [](const std::string& id) { return id.size() == 32 && AllLowerHex(id); };
  if (!doc.is_object() || doc.GetStringOr("schema", "") != "ppdp.access.v1") {
    return invalid("record is not a ppdp.access.v1 object");
  }
  RequestRecord parsed;
  parsed.request_id = doc.GetStringOr("request_id", "");
  parsed.tenant = doc.GetStringOr("tenant", "");
  parsed.endpoint = doc.GetStringOr("endpoint", "");
  parsed.status = static_cast<int>(doc.GetNumberOr("status", 0.0));
  parsed.total_micros = doc.GetNumberOr("total_micros", -1.0);
  parsed.coalesce = doc.GetStringOr("coalesce", "");
  parsed.leader_request_id = doc.GetStringOr("leader_request_id", "");
  if (!is_trace_id(parsed.request_id)) return invalid("request_id is not 32 lowercase hex chars");
  if (parsed.status <= 0) return invalid("status missing or not positive");
  if (!(parsed.total_micros >= 0.0)) return invalid("total_micros missing or negative");
  if (!parsed.coalesce.empty() && parsed.coalesce != "leader" && parsed.coalesce != "waiter") {
    return invalid("coalesce must be empty, leader, or waiter");
  }
  if (parsed.coalesce == "waiter" && !is_trace_id(parsed.leader_request_id)) {
    return invalid("waiter without a well-formed leader_request_id");
  }
  const JsonValue* stages = doc.Find("stages");
  if (stages == nullptr || !stages->is_object()) return invalid("stages missing or not an object");
  for (const auto& [name, micros] : stages->members()) {
    if (!micros.is_number() || !(micros.as_number() >= 0.0)) {
      return invalid("stage \"" + name + "\" has a non-numeric/negative value");
    }
    parsed.stages.push_back({name, micros.as_number()});
  }
  // Stages are disjoint sub-intervals of the request, closed before the
  // total is stamped. Half a microsecond of slack absorbs double rounding.
  if (parsed.StageMicrosSum() > parsed.total_micros + 0.5) {
    return invalid("stage micros sum exceeds total_micros");
  }
  if (record != nullptr) *record = std::move(parsed);
  return Status::Ok();
}

RequestContext::RequestContext(std::string endpoint, const obs::HttpRequest& request) {
  start_seconds = obs::MonotonicSeconds();
  record.endpoint = std::move(endpoint);
  record.bytes_in = request.body.size();
  const std::string traceparent = request.HeaderOr("traceparent", "");
  if (!ParseTraceparent(traceparent, &record.request_id)) {
    record.request_id = GenerateTraceId();
  }
  record.span_id = GenerateSpanId();
}

void RequestContext::AddStage(const std::string* name, double micros) {
  // A stage re-entered on the same request (e.g. a retried spend) merges
  // into one entry, keeping the access record one row per stage.
  for (auto& [stage, total] : stages_) {
    if (stage == name) {
      total += micros;
      return;
    }
  }
  stages_.emplace_back(name, micros);
}

StageTimer::StageTimer(RequestContext* context, const obs::SpanSite& stage)
    : context_(context), span_(stage) {
  if (context_ != nullptr) context_->current_stage.store(span_.id(), std::memory_order_release);
}

double StageTimer::Stop() {
  const double micros = span_.Stop();
  if (context_ != nullptr) {
    context_->AddStage(span_.site().name, micros);
    context_->current_stage.store(0, std::memory_order_release);
    context_ = nullptr;
  }
  return micros;
}

Status RequestObserver::Configure(const std::string& access_log, double access_log_max_mb,
                                  double slow_request_ms) {
  slow_request_ms_ = slow_request_ms;
  if (access_log.empty()) return Status::Ok();
  const double max_mb = access_log_max_mb > 0 ? access_log_max_mb : 256.0;
  return log_.Open(access_log, static_cast<uint64_t>(max_mb * 1024.0 * 1024.0));
}

void RequestObserver::Begin(RequestContext* context) {
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_.push_back(context);
}

void RequestObserver::Complete(RequestContext* context) {
  RequestRecord& record = context->record;
  record.total_micros = (obs::MonotonicSeconds() - context->start_seconds) * 1e6;
  for (const auto& [name, micros] : context->stages_) record.stages.push_back({*name, micros});

  if (log_.enabled()) {
    if (Status appended = log_.Append(record.ToJson().Dump()); !appended.ok()) {
      PPDP_LOG(WARN) << "access log append failed" << obs::Field("status", appended.ToString());
    }
  }

  const double total_ms = record.total_micros / 1e3;
  const bool slow = slow_request_ms_ > 0.0 && total_ms >= slow_request_ms_;
  const bool failed = record.status < 200 || record.status >= 300;
  if (slow || failed) {
    obs::FlightEvent event;
    event.elapsed_seconds = obs::MonotonicSeconds();
    event.category = "request";
    event.severity = failed ? "ERROR" : "WARN";
    event.label = record.endpoint;
    event.message = record.ToJson().Dump();
    obs::FlightRecorder::Global().Record(std::move(event));
  }

  // Names in request bodies are attacker-controlled: only a registered
  // tenant gets a metric family, so the registry's cap bounds them.
  if (tenants_->FindTenant(record.tenant) != nullptr) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const std::string prefix = "serve.tenant." + record.tenant;
    registry.counter(prefix + ".requests").Increment();
    if (record.status >= 400) registry.counter(prefix + ".rejected").Increment();
    registry.histogram(prefix + ".latency_ms", TenantLatencyBoundsMs()).Observe(total_ms);
  }

  if (slo_ != nullptr) {
    slo_->RecordRequest(record.status, record.total_micros / 1e6);
    slo_->EvaluateIfDue();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < inflight_.size(); ++i) {
    if (inflight_[i] == context) {
      inflight_[i] = inflight_.back();
      inflight_.pop_back();
      break;
    }
  }
  completed_.push_back(record);
  ++completed_total_;
  while (completed_.size() > kCompletedRing) completed_.pop_front();
}

size_t RequestObserver::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_.size();
}

uint64_t RequestObserver::completed_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_total_;
}

JsonValue RequestObserver::RequestzDocument(const std::string& tenant, double min_ms) const {
  const double now = obs::MonotonicSeconds();
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.requestz.v1"));
  JsonValue live = JsonValue::Array();
  JsonValue done = JsonValue::Array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RequestContext* context : inflight_) {
      if (!tenant.empty() && context->record.tenant != tenant) continue;
      JsonValue entry = JsonValue::Object();
      entry.Set("request_id", JsonValue::String(context->record.request_id));
      entry.Set("tenant", JsonValue::String(context->record.tenant));
      entry.Set("endpoint", JsonValue::String(context->record.endpoint));
      entry.Set("elapsed_ms", JsonValue::Number((now - context->start_seconds) * 1e3));
      entry.Set("stage", JsonValue::String(obs::SpanNameForId(
                             context->current_stage.load(std::memory_order_acquire))));
      live.Append(std::move(entry));
    }
    for (auto it = completed_.rbegin(); it != completed_.rend(); ++it) {
      if (!tenant.empty() && it->tenant != tenant) continue;
      if (min_ms > 0.0 && it->total_micros < min_ms * 1e3) continue;
      done.Append(it->ToJson());
    }
    doc.Set("completed_total", JsonValue::Number(static_cast<double>(completed_total_)));
  }
  doc.Set("inflight", std::move(live));
  doc.Set("completed", std::move(done));
  return doc;
}

}  // namespace ppdp::serve
