#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace ppdp::obs {
namespace {

bool ValidRuleName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Windowed latency histogram bounds: finer than DefaultLatencyBoundsSeconds
/// in the 1ms..5s band where request SLOs actually live, since a windowed
/// quantile is only as sharp as its buckets.
std::vector<double> RequestLatencyBounds() {
  return {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
          0.25,   0.5,   1.0,    2.5,   5.0,  10.0,  30.0};
}

/// Ring position of absolute bucket `index` (floor modulo, so negative
/// indices wrap too).
size_t RingPosition(int64_t index, size_t ring_size) {
  const int64_t n = static_cast<int64_t>(ring_size);
  return static_cast<size_t>(((index % n) + n) % n);
}

}  // namespace

// ---------------------------------------------------------------- SlidingWindow

SlidingWindow::SlidingWindow(Options options) : options_(std::move(options)) {
  PPDP_CHECK(options_.bucket_seconds > 0) << "bucket_seconds must be positive";
  PPDP_CHECK(options_.num_buckets > 0) << "num_buckets must be positive";
  for (size_t i = 1; i < options_.bounds.size(); ++i) {
    PPDP_CHECK(options_.bounds[i] > options_.bounds[i - 1]) << "bounds must be increasing";
  }
  ring_.resize(options_.num_buckets);
}

const BucketAccumulator& SlidingWindow::Read(double window_seconds, double now) const {
  const double window = std::min(std::max(window_seconds, options_.bucket_seconds),
                                 span_seconds());
  const int64_t current = static_cast<int64_t>(std::floor(now / options_.bucket_seconds));
  const int64_t covered =
      static_cast<int64_t>(std::ceil(window / options_.bucket_seconds - 1e-9));
  newest_ = std::max(newest_, current);
  auto closed = std::find_if(closed_.begin(), closed_.end(),
                             [covered](const ClosedMerge& c) { return c.covered == covered; });
  if (closed == closed_.end()) {
    closed = closed_.emplace(closed_.end());
    closed->covered = covered;
  }
  if (closed->current != current || closed->generation != generation_) {
    closed->current = current;
    closed->generation = generation_;
    closed->merged.Reset(options_.bounds.size());
    for (int64_t index = current - covered + 1; index < current; ++index) {
      const Bucket& bucket = ring_[RingPosition(index, ring_.size())];
      if (bucket.index == index) closed->merged.Merge(bucket.stats);
    }
  }
  read_ = closed->merged;
  const Bucket& live = ring_[RingPosition(current, ring_.size())];
  if (live.index == current) read_.Merge(live.stats);
  return read_;
}

void SlidingWindow::Add(double value, double now) {
  const int64_t index = static_cast<int64_t>(std::floor(now / options_.bucket_seconds));
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = ring_[RingPosition(index, ring_.size())];
  if (bucket.index != index || index < newest_) ++generation_;
  if (bucket.index != index) {
    bucket.index = index;
    bucket.stats.Reset(options_.bounds.size());
  }
  newest_ = std::max(newest_, index);
  bucket.stats.Add(options_.bounds, value);
}

SlidingWindow::WindowStats SlidingWindow::StatsOver(double window_seconds, double now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const BucketAccumulator& merged = Read(window_seconds, now);
  WindowStats stats{merged.count, merged.sum};
  if (stats.count > 0) stats.mean = stats.sum / static_cast<double>(stats.count);
  return stats;
}

double SlidingWindow::RateOver(double window_seconds, double now) const {
  if (window_seconds <= 0) return 0.0;
  return StatsOver(window_seconds, now).sum / window_seconds;
}

BucketAccumulator SlidingWindow::MergedOver(double window_seconds, double now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Read(window_seconds, now);
}

double SlidingWindow::QuantileOver(double window_seconds, double q, double now) const {
  if (options_.bounds.empty()) return 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  return BucketQuantile(options_.bounds, Read(window_seconds, now), q);
}

// ----------------------------------------------------------------- rule model

const char* SignalName(AlertRule::Signal signal) {
  switch (signal) {
    case AlertRule::Signal::kAvailability:
      return "availability";
    case AlertRule::Signal::kLatency:
      return "latency";
    case AlertRule::Signal::kQueue:
      return "queue";
    case AlertRule::Signal::kLedgerBurn:
      return "ledger_burn";
  }
  return "unknown";
}

const char* SeverityName(AlertRule::Severity severity) {
  return severity == AlertRule::Severity::kPage ? "page" : "ticket";
}

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kResolved:
      return "resolved";
  }
  return "unknown";
}

std::vector<AlertRule> DefaultSloRules() {
  std::vector<AlertRule> rules;
  {
    // 99.9% non-5xx, paging at 14.4x burn (the classic "2% of a 30d budget
    // in one hour" multiplier) over 60s/600s windows.
    AlertRule rule;
    rule.name = "availability";
    rule.signal = AlertRule::Signal::kAvailability;
    rule.severity = AlertRule::Severity::kPage;
    rule.objective = 0.999;
    rule.burn_rate = 14.4;
    rule.min_count = 10;
    rule.for_seconds = 5.0;
    rules.push_back(rule);
  }
  {
    AlertRule rule;
    rule.name = "latency_p99";
    rule.signal = AlertRule::Signal::kLatency;
    rule.severity = AlertRule::Severity::kTicket;
    rule.quantile = 0.99;
    rule.threshold = 2.5;
    rule.min_count = 10;
    rule.for_seconds = 5.0;
    rules.push_back(rule);
  }
  {
    AlertRule rule;
    rule.name = "queue_pressure";
    rule.signal = AlertRule::Signal::kQueue;
    rule.severity = AlertRule::Severity::kTicket;
    rule.threshold = 0.9;
    rule.min_count = 5;
    rule.for_seconds = 5.0;
    rules.push_back(rule);
  }
  {
    // Pages while the tenant still has budget left: projected exhaustion
    // within 600s at the observed spend rate, in both windows.
    AlertRule rule;
    rule.name = "ledger_burn";
    rule.signal = AlertRule::Signal::kLedgerBurn;
    rule.severity = AlertRule::Severity::kPage;
    rule.horizon_seconds = 600.0;
    rule.min_count = 1;
    rule.for_seconds = 0.0;
    rules.push_back(rule);
  }
  return rules;
}

namespace {

Result<AlertRule> ParseRule(const JsonValue& doc) {
  if (!doc.is_object()) return Status::InvalidArgument("slo rule must be an object");
  AlertRule rule;
  rule.name = doc.GetStringOr("name", "");
  if (!ValidRuleName(rule.name)) {
    return Status::InvalidArgument("slo rule name must match [A-Za-z0-9_.-]{1,64}: '" + rule.name +
                                   "'");
  }
  const std::string signal = doc.GetStringOr("signal", "");
  if (signal == "availability") {
    rule.signal = AlertRule::Signal::kAvailability;
  } else if (signal == "latency") {
    rule.signal = AlertRule::Signal::kLatency;
  } else if (signal == "queue") {
    rule.signal = AlertRule::Signal::kQueue;
  } else if (signal == "ledger_burn") {
    rule.signal = AlertRule::Signal::kLedgerBurn;
  } else {
    return Status::InvalidArgument("slo rule '" + rule.name + "': unknown signal '" + signal +
                                   "'");
  }
  const std::string severity = doc.GetStringOr("severity", "ticket");
  if (severity == "ticket") {
    rule.severity = AlertRule::Severity::kTicket;
  } else if (severity == "page") {
    rule.severity = AlertRule::Severity::kPage;
  } else {
    return Status::InvalidArgument("slo rule '" + rule.name + "': unknown severity '" + severity +
                                   "'");
  }
  rule.fast_window_seconds = doc.GetNumberOr("fast_window_s", rule.fast_window_seconds);
  rule.slow_window_seconds = doc.GetNumberOr("slow_window_s", rule.slow_window_seconds);
  rule.for_seconds = doc.GetNumberOr("for_s", rule.for_seconds);
  rule.resolve_seconds = doc.GetNumberOr("resolve_s", rule.resolve_seconds);
  rule.min_count = static_cast<uint64_t>(doc.GetNumberOr(
      "min_count", static_cast<double>(rule.min_count)));
  rule.objective = doc.GetNumberOr("objective", rule.objective);
  rule.burn_rate = doc.GetNumberOr("burn_rate", rule.burn_rate);
  rule.quantile = doc.GetNumberOr("quantile", rule.quantile);
  rule.threshold = doc.GetNumberOr("threshold", rule.threshold);
  if (doc.Has("threshold_ms")) rule.threshold = doc.GetNumberOr("threshold_ms", 0.0) / 1000.0;
  rule.horizon_seconds = doc.GetNumberOr("horizon_s", rule.horizon_seconds);

  if (!(rule.fast_window_seconds > 0) || !(rule.slow_window_seconds > 0)) {
    return Status::InvalidArgument("slo rule '" + rule.name + "': windows must be positive");
  }
  if (rule.fast_window_seconds > rule.slow_window_seconds) {
    return Status::InvalidArgument("slo rule '" + rule.name +
                                   "': fast window must not exceed slow window");
  }
  if (rule.slow_window_seconds > 3600.0) {
    return Status::InvalidArgument("slo rule '" + rule.name +
                                   "': slow window must be <= 3600s (the ring span)");
  }
  if (rule.for_seconds < 0 || rule.resolve_seconds < 0) {
    return Status::InvalidArgument("slo rule '" + rule.name + "': holds must be non-negative");
  }
  if (rule.signal == AlertRule::Signal::kAvailability) {
    if (!(rule.objective > 0.0) || !(rule.objective < 1.0)) {
      return Status::InvalidArgument("slo rule '" + rule.name +
                                     "': objective must be in (0, 1)");
    }
    if (!(rule.burn_rate > 0.0)) {
      return Status::InvalidArgument("slo rule '" + rule.name + "': burn_rate must be positive");
    }
  }
  if (rule.signal == AlertRule::Signal::kLatency) {
    if (!(rule.quantile > 0.0) || !(rule.quantile <= 1.0)) {
      return Status::InvalidArgument("slo rule '" + rule.name + "': quantile must be in (0, 1]");
    }
    if (!(rule.threshold > 0.0)) {
      return Status::InvalidArgument("slo rule '" + rule.name + "': threshold must be positive");
    }
  }
  if (rule.signal == AlertRule::Signal::kQueue && !(rule.threshold > 0.0)) {
    return Status::InvalidArgument("slo rule '" + rule.name + "': threshold must be positive");
  }
  if (rule.signal == AlertRule::Signal::kLedgerBurn && !(rule.horizon_seconds > 0.0)) {
    return Status::InvalidArgument("slo rule '" + rule.name + "': horizon_s must be positive");
  }
  return rule;
}

}  // namespace

Result<std::vector<AlertRule>> ParseSloConfig(const JsonValue& doc) {
  if (!doc.is_object()) return Status::InvalidArgument("slo config must be a JSON object");
  const std::string schema = doc.GetStringOr("schema", "");
  if (schema != "ppdp.slo.v1") {
    return Status::InvalidArgument("slo config schema must be ppdp.slo.v1, got '" + schema + "'");
  }
  const JsonValue* rules_json = doc.Find("rules");
  if (rules_json == nullptr || !rules_json->is_array()) {
    return Status::InvalidArgument("slo config must have a 'rules' array");
  }
  std::vector<AlertRule> rules;
  for (size_t i = 0; i < rules_json->size(); ++i) {
    PPDP_ASSIGN_OR_RETURN(AlertRule rule, ParseRule(rules_json->at(i)));
    for (const AlertRule& existing : rules) {
      if (existing.name == rule.name) {
        return Status::InvalidArgument("slo config has duplicate rule name '" + rule.name + "'");
      }
    }
    rules.push_back(std::move(rule));
  }
  if (rules.empty()) return Status::InvalidArgument("slo config has no rules");
  return rules;
}

Result<std::vector<AlertRule>> LoadSloConfig(const std::string& path) {
  PPDP_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Load(path));
  return ParseSloConfig(doc);
}

JsonValue AlertTransition::ToJson() const {
  JsonValue record = JsonValue::Object();
  record.Set("schema", JsonValue::String("ppdp.alertlog.v1"));
  record.Set("t_seconds", JsonValue::Number(t_seconds));
  record.Set("rule", JsonValue::String(rule));
  if (!tenant.empty()) record.Set("tenant", JsonValue::String(tenant));
  record.Set("from", JsonValue::String(AlertStateName(from)));
  record.Set("to", JsonValue::String(AlertStateName(to)));
  record.Set("severity", JsonValue::String(SeverityName(severity)));
  record.Set("burn_fast", JsonValue::Number(burn_fast));
  record.Set("burn_slow", JsonValue::Number(burn_slow));
  return record;
}

// ------------------------------------------------------------------ SloEngine

SloEngine::SloEngine(Options options)
    : options_(std::move(options)),
      clock_(options_.clock ? options_.clock : SloClock(&MonotonicSeconds)),
      server_errors_(SlidingWindow::Options{options_.bucket_seconds, 3660, {}}),
      latency_(SlidingWindow::Options{options_.bucket_seconds, 3660, RequestLatencyBounds()}),
      queue_depth_(SlidingWindow::Options{options_.bucket_seconds, 3660, {}}),
      instances_(options_.rules.size()) {}

Result<std::unique_ptr<SloEngine>> SloEngine::Create(Options options) {
  if (!(options.bucket_seconds > 0)) {
    return Status::InvalidArgument("slo bucket_seconds must be positive");
  }
  if (options.eval_period_seconds < 0) {
    return Status::InvalidArgument("slo eval_period_seconds must be non-negative");
  }
  if (options.rules.empty()) options.rules = DefaultSloRules();
  for (size_t i = 0; i < options.rules.size(); ++i) {
    const AlertRule& rule = options.rules[i];
    if (!ValidRuleName(rule.name)) {
      return Status::InvalidArgument("slo rule name must match [A-Za-z0-9_.-]{1,64}: '" +
                                     rule.name + "'");
    }
    for (size_t j = 0; j < i; ++j) {
      if (options.rules[j].name == rule.name) {
        return Status::InvalidArgument("duplicate slo rule name '" + rule.name + "'");
      }
    }
  }
  const std::string alert_log = options.alert_log;
  const double max_mb = options.alert_log_max_mb;
  std::unique_ptr<SloEngine> engine(new SloEngine(std::move(options)));
  if (!alert_log.empty()) {
    if (!(max_mb > 0)) return Status::InvalidArgument("alert_log_max_mb must be positive");
    PPDP_RETURN_IF_ERROR(
        engine->alert_log_.Open(alert_log, static_cast<uint64_t>(max_mb * 1024.0 * 1024.0)));
  }
  return engine;
}

void SloEngine::RecordRequest(int status, double latency_seconds) {
  const double now = clock_();
  if (status >= 500) server_errors_.Add(1.0, now);
  latency_.Add(latency_seconds, now);
}

void SloEngine::RecordQueueDepth(double depth_ratio) {
  queue_depth_.Add(depth_ratio, clock_());
}

void SloEngine::RecordSpend(const std::string& tenant, double epsilon, double remaining_epsilon,
                            double budget_epsilon) {
  const double now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    if (tenants_.size() >= options_.max_tenants) return;
    TenantBurn burn;
    burn.spend = std::make_unique<SlidingWindow>(
        SlidingWindow::Options{options_.bucket_seconds, 3660, {}});
    it = tenants_.emplace(tenant, std::move(burn)).first;
  }
  it->second.spend->Add(epsilon, now);
  it->second.remaining = remaining_epsilon;
  it->second.budget = budget_epsilon;
}

SloEngine::SignalReading SloEngine::ReadSignal(const AlertRule& rule, const TenantBurn* burn,
                                               double window_seconds, double now) const {
  SignalReading reading;
  switch (rule.signal) {
    case AlertRule::Signal::kAvailability: {
      const SlidingWindow::WindowStats all = latency_.StatsOver(window_seconds, now);
      reading.errors = server_errors_.StatsOver(window_seconds, now).count;
      reading.events = all.count;
      const double error_ratio =
          static_cast<double>(reading.errors) / static_cast<double>(all.count);
      reading.attained = all.count == 0 ? 1.0 : 1.0 - error_ratio;
      if (all.count < rule.min_count) return reading;
      const double budget = 1.0 - rule.objective;  // objective < 1 enforced at parse
      reading.evaluable = true;
      reading.burn = error_ratio / budget;
      reading.breach = reading.burn >= rule.burn_rate;
      return reading;
    }
    case AlertRule::Signal::kLatency: {
      reading.events = latency_.StatsOver(window_seconds, now).count;
      const double quantile = latency_.QuantileOver(window_seconds, rule.quantile, now);
      reading.attained = quantile;
      if (reading.events < rule.min_count) return reading;
      reading.evaluable = true;
      reading.burn = rule.threshold > 0 ? quantile / rule.threshold : 0.0;
      reading.breach = quantile > rule.threshold;
      return reading;
    }
    case AlertRule::Signal::kQueue: {
      const SlidingWindow::WindowStats all = queue_depth_.StatsOver(window_seconds, now);
      reading.events = all.count;
      reading.attained = all.mean;
      if (all.count < rule.min_count) return reading;
      reading.evaluable = true;
      reading.burn = rule.threshold > 0 ? all.mean / rule.threshold : 0.0;
      reading.breach = all.mean > rule.threshold;
      return reading;
    }
    case AlertRule::Signal::kLedgerBurn: {
      // Caller holds mutex_ (Evaluate, Attainment), which guards `burn`;
      // the tenant's own window takes only its internal lock.
      const SlidingWindow::WindowStats spend = burn->spend->StatsOver(window_seconds, now);
      reading.events = spend.count;
      reading.remaining = burn->remaining;
      reading.rate = spend.sum / window_seconds;          // ε per second
      const double tte = burn->remaining / reading.rate;  // projected seconds to exhaustion
      reading.attained = reading.rate > 0 ? tte : std::numeric_limits<double>::infinity();
      if (spend.count < rule.min_count || !(reading.rate > 0)) return reading;
      reading.evaluable = true;
      reading.burn = tte > 0 ? rule.horizon_seconds / tte : rule.horizon_seconds * 1e6;
      reading.breach = tte <= rule.horizon_seconds;
      return reading;
    }
  }
  return reading;
}

JsonValue SloEngine::InputsJson(const AlertRule& rule, const SignalReading& reading) {
  JsonValue inputs = JsonValue::Object();
  const double events = static_cast<double>(reading.events);
  switch (rule.signal) {
    case AlertRule::Signal::kAvailability:
      inputs.Set("requests", JsonValue::Number(events));
      inputs.Set("errors_5xx", JsonValue::Number(static_cast<double>(reading.errors)));
      if (reading.evaluable) {
        inputs.Set("error_ratio",
                   JsonValue::Number(static_cast<double>(reading.errors) / events));
      }
      break;
    case AlertRule::Signal::kLatency:
      inputs.Set("requests", JsonValue::Number(events));
      if (reading.evaluable) inputs.Set("quantile_seconds", JsonValue::Number(reading.attained));
      break;
    case AlertRule::Signal::kQueue:
      inputs.Set("samples", JsonValue::Number(events));
      if (reading.evaluable) inputs.Set("mean_depth_ratio", JsonValue::Number(reading.attained));
      break;
    case AlertRule::Signal::kLedgerBurn:
      inputs.Set("spends", JsonValue::Number(events));
      inputs.Set("remaining_epsilon", JsonValue::Number(reading.remaining));
      if (reading.events >= rule.min_count) {
        inputs.Set("spend_rate", JsonValue::Number(reading.rate));
      }
      if (reading.evaluable) {
        inputs.Set("time_to_exhaustion_s", JsonValue::Number(reading.attained));
      }
      break;
  }
  return inputs;
}

void SloEngine::Step(const AlertRule& rule, const std::string& tenant, const TenantBurn* burn,
                     Instance* instance, double now, std::vector<AlertTransition>* transitions) {
  instance->fast = ReadSignal(rule, burn, rule.fast_window_seconds, now);
  instance->slow = ReadSignal(rule, burn, rule.slow_window_seconds, now);
  const SignalReading& fast = instance->fast;
  const SignalReading& slow = instance->slow;
  // The multi-window rule: only a breach in BOTH windows counts.
  const bool breach = fast.evaluable && slow.evaluable && fast.breach && slow.breach;

  auto emit = [&](AlertState from, AlertState to) {
    instance->state = to;
    instance->since_seconds = now;
    AlertTransition transition;
    transition.t_seconds = now;
    transition.rule = rule.name;
    transition.tenant = tenant;
    transition.from = from;
    transition.to = to;
    transition.severity = rule.severity;
    transition.burn_fast = fast.burn;
    transition.burn_slow = slow.burn;
    Export(transition);
    transitions->push_back(std::move(transition));
  };

  switch (instance->state) {
    case AlertState::kInactive:
    case AlertState::kResolved:
      if (breach) {
        instance->pending_since = now;
        emit(instance->state, AlertState::kPending);
        if (now - instance->pending_since >= rule.for_seconds) {
          emit(AlertState::kPending, AlertState::kFiring);
          instance->clear_since = -1.0;
        }
      } else if (instance->state == AlertState::kResolved) {
        // Resolved is sticky for visibility; it decays to inactive once the
        // resolve hold has passed again without a re-breach.
        if (now - instance->since_seconds >= rule.resolve_seconds) {
          instance->state = AlertState::kInactive;
          instance->since_seconds = now;
        }
      }
      break;
    case AlertState::kPending:
      if (!breach) {
        // Cleared before firing: fall back silently (no operator-visible
        // resolution for an alert that never fired).
        instance->state = AlertState::kInactive;
        instance->since_seconds = now;
      } else if (now - instance->pending_since >= rule.for_seconds) {
        emit(AlertState::kPending, AlertState::kFiring);
        instance->clear_since = -1.0;
      }
      break;
    case AlertState::kFiring:
      if (breach) {
        instance->clear_since = -1.0;
      } else {
        if (instance->clear_since < 0) instance->clear_since = now;
        if (now - instance->clear_since >= rule.resolve_seconds) {
          emit(AlertState::kFiring, AlertState::kResolved);
        }
      }
      break;
  }
}

void SloEngine::Export(const AlertTransition& transition) {
  ++transitions_total_;
  if (options_.export_metrics) {
    MetricsRegistry::Global().counter("slo.transitions.total").Increment();
    std::string instance_name = "slo.alert." + transition.rule;
    if (!transition.tenant.empty()) instance_name += "." + transition.tenant;
    MetricsRegistry::Global()
        .gauge(instance_name + ".state")
        .Set(static_cast<double>(static_cast<int>(transition.to)));
    MetricsRegistry::Global().gauge(instance_name + ".burn_fast").Set(transition.burn_fast);
    MetricsRegistry::Global().gauge(instance_name + ".burn_slow").Set(transition.burn_slow);
  }
  const std::string label =
      transition.tenant.empty() ? transition.rule : transition.rule + "/" + transition.tenant;
  FlightEvent event;
  event.elapsed_seconds = transition.t_seconds;
  event.category = "alert";
  event.severity = transition.to == AlertState::kFiring &&
                           transition.severity == AlertRule::Severity::kPage
                       ? "ERROR"
                       : "WARN";
  event.label = label;
  event.message = std::string(AlertStateName(transition.from)) + " -> " +
                  AlertStateName(transition.to);
  FlightRecorder::Global().Record(std::move(event));
  if (alert_log_.enabled()) {
    const Status status = alert_log_.Append(transition.ToJson().Dump());
    if (!status.ok()) {
      PPDP_LOG(WARN) << "alert log append failed" << Field("error", status.ToString());
    }
  }
}

std::vector<AlertTransition> SloEngine::Evaluate() {
  const double now = clock_();
  std::vector<AlertTransition> transitions;
  std::lock_guard<std::mutex> lock(mutex_);
  last_eval_seconds_ = now;
  static const std::string kGlobal;
  for (size_t r = 0; r < options_.rules.size(); ++r) {
    const AlertRule& rule = options_.rules[r];
    if (rule.signal == AlertRule::Signal::kLedgerBurn) {
      for (const auto& [tenant, burn] : tenants_) {
        Step(rule, tenant, &burn, &instances_[r][tenant], now, &transitions);
      }
    } else {
      Step(rule, kGlobal, nullptr, &instances_[r][kGlobal], now, &transitions);
    }
  }
  return transitions;
}

void SloEngine::EvaluateIfDue() {
  // Single flight over the period check and the evaluation together: a
  // caller that finds an evaluation running returns at once (the running
  // one stands for it) instead of queueing on mutex_, and two callers can
  // never both pass the check and evaluate twice in one period.
  if (evaluating_.exchange(true, std::memory_order_acquire)) return;
  bool due;
  {
    const double now = clock_();
    std::lock_guard<std::mutex> lock(mutex_);
    due = last_eval_seconds_ < 0 || now - last_eval_seconds_ >= options_.eval_period_seconds;
  }
  if (due) Evaluate();
  evaluating_.store(false, std::memory_order_release);
}

int SloEngine::WorstFiringSeverity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int worst = 0;
  for (size_t r = 0; r < options_.rules.size(); ++r) {
    const int severity = options_.rules[r].severity == AlertRule::Severity::kPage ? 2 : 1;
    for (const auto& [tenant, instance] : instances_[r]) {
      if (instance.state == AlertState::kFiring) worst = std::max(worst, severity);
    }
  }
  return worst;
}

std::vector<std::string> SloEngine::FiringAlerts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Sorted by "rule\ntenant": rule name first, then tenant.
  std::vector<std::string> firing;
  for (size_t r = 0; r < options_.rules.size(); ++r) {
    const bool ledger = options_.rules[r].signal == AlertRule::Signal::kLedgerBurn;
    for (const auto& [tenant, instance] : instances_[r]) {
      if (instance.state != AlertState::kFiring) continue;
      firing.push_back(ledger ? options_.rules[r].name + "\n" + tenant : options_.rules[r].name);
    }
  }
  std::sort(firing.begin(), firing.end());
  for (std::string& name : firing) std::replace(name.begin(), name.end(), '\n', '/');
  return firing;
}

JsonValue SloEngine::AlertzDocument() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.alertz.v1"));
  doc.Set("t_seconds", JsonValue::Number(last_eval_seconds_ < 0 ? 0.0 : last_eval_seconds_));
  doc.Set("transitions_total", JsonValue::Number(static_cast<double>(transitions_total_)));
  JsonValue rules = JsonValue::Array();
  for (size_t r = 0; r < options_.rules.size(); ++r) {
    const AlertRule& rule = options_.rules[r];
    JsonValue rule_json = JsonValue::Object();
    rule_json.Set("rule", JsonValue::String(rule.name));
    rule_json.Set("signal", JsonValue::String(SignalName(rule.signal)));
    rule_json.Set("severity", JsonValue::String(SeverityName(rule.severity)));
    rule_json.Set("fast_window_s", JsonValue::Number(rule.fast_window_seconds));
    rule_json.Set("slow_window_s", JsonValue::Number(rule.slow_window_seconds));
    JsonValue instances = JsonValue::Array();
    for (const auto& [tenant, instance] : instances_[r]) {
      JsonValue instance_json = JsonValue::Object();
      if (rule.signal == AlertRule::Signal::kLedgerBurn) {
        instance_json.Set("tenant", JsonValue::String(tenant));
      }
      instance_json.Set("state", JsonValue::String(AlertStateName(instance.state)));
      instance_json.Set("since_s", JsonValue::Number(instance.since_seconds));
      instance_json.Set("burn_fast", JsonValue::Number(instance.fast.burn));
      instance_json.Set("burn_slow", JsonValue::Number(instance.slow.burn));
      instance_json.Set("inputs_fast", InputsJson(rule, instance.fast));
      instance_json.Set("inputs_slow", InputsJson(rule, instance.slow));
      instances.Append(std::move(instance_json));
    }
    rule_json.Set("instances", std::move(instances));
    rules.Append(std::move(rule_json));
  }
  doc.Set("rules", std::move(rules));
  return doc;
}

std::vector<SloAttainment> SloEngine::Attainment() const {
  const double now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SloAttainment> rows;
  for (const AlertRule& rule : options_.rules) {
    SloAttainment row;
    row.rule = rule.name;
    row.signal = SignalName(rule.signal);
    if (rule.signal == AlertRule::Signal::kLedgerBurn) {
      // Report the worst tenant: smallest projected time-to-exhaustion.
      double worst_tte = std::numeric_limits<double>::infinity();
      for (const auto& [tenant, burn] : tenants_) {
        const SignalReading reading = ReadSignal(rule, &burn, rule.slow_window_seconds, now);
        row.events += reading.events;
        if (reading.attained < worst_tte) {
          worst_tte = reading.attained;
          row.tenant = tenant;
        }
      }
      // No spend observed means nothing is burning: report the horizon
      // itself, which meets the bound exactly.
      row.attained = std::isinf(worst_tte) ? rule.horizon_seconds : worst_tte;
    } else {
      const SignalReading reading = ReadSignal(rule, nullptr, rule.slow_window_seconds, now);
      row.events = reading.events;
      row.attained = reading.attained;
    }
    switch (rule.signal) {
      case AlertRule::Signal::kAvailability:
        row.objective = rule.objective;
        row.met = row.attained >= rule.objective;
        break;
      case AlertRule::Signal::kLatency:
      case AlertRule::Signal::kQueue:
        row.objective = rule.threshold;
        row.met = row.attained <= rule.threshold;
        break;
      case AlertRule::Signal::kLedgerBurn:
        row.objective = rule.horizon_seconds;
        row.met = row.attained >= rule.horizon_seconds;
        break;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

JsonValue SloEngine::SlozDocument() const {
  const std::vector<SloAttainment> rows = Attainment();
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.sloz.v1"));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    doc.Set("t_seconds", JsonValue::Number(last_eval_seconds_ < 0 ? 0.0 : last_eval_seconds_));
  }
  JsonValue slos = JsonValue::Array();
  for (const SloAttainment& row : rows) {
    JsonValue row_json = JsonValue::Object();
    row_json.Set("rule", JsonValue::String(row.rule));
    row_json.Set("signal", JsonValue::String(row.signal));
    if (!row.tenant.empty()) row_json.Set("tenant", JsonValue::String(row.tenant));
    row_json.Set("objective", JsonValue::Number(row.objective));
    row_json.Set("attained", JsonValue::Number(row.attained));
    row_json.Set("met", JsonValue::Bool(row.met));
    row_json.Set("events", JsonValue::Number(static_cast<double>(row.events)));
    slos.Append(std::move(row_json));
  }
  doc.Set("slos", std::move(slos));
  return doc;
}

uint64_t SloEngine::transitions_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_total_;
}

Status ValidateAlertLogRecord(const JsonValue& doc) {
  if (!doc.is_object()) return Status::InvalidArgument("alert log record must be an object");
  const std::string schema = doc.GetStringOr("schema", "");
  if (schema != "ppdp.alertlog.v1") {
    return Status::InvalidArgument("alert log record schema must be ppdp.alertlog.v1, got '" +
                                   schema + "'");
  }
  if (doc.GetNumberOr("t_seconds", -1.0) < 0) {
    return Status::InvalidArgument("alert log record needs a non-negative t_seconds");
  }
  if (doc.GetStringOr("rule", "").empty()) {
    return Status::InvalidArgument("alert log record needs a rule name");
  }
  const std::string severity = doc.GetStringOr("severity", "");
  if (severity != "ticket" && severity != "page") {
    return Status::InvalidArgument("alert log record has unknown severity '" + severity + "'");
  }
  const std::string from = doc.GetStringOr("from", "");
  const std::string to = doc.GetStringOr("to", "");
  const bool legal = (to == "pending" && (from == "inactive" || from == "resolved")) ||
                     (to == "firing" && from == "pending") || (to == "resolved" && from == "firing");
  if (!legal) {
    return Status::InvalidArgument("alert log record has illegal transition '" + from + "' -> '" +
                                   to + "'");
  }
  if (doc.GetNumberOr("burn_fast", -1.0) < 0 || doc.GetNumberOr("burn_slow", -1.0) < 0) {
    return Status::InvalidArgument("alert log record needs non-negative burn rates");
  }
  return Status::Ok();
}

}  // namespace ppdp::obs
