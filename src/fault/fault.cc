#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace ppdp::fault {

namespace {

/// The fault kinds present in `mask`, in a fixed order so the uniform pick
/// below is stable across platforms.
std::vector<FaultKind> KindsIn(FaultMask mask) {
  std::vector<FaultKind> kinds;
  for (FaultKind kind :
       {FaultKind::kDrop, FaultKind::kDuplicate, FaultKind::kCorrupt, FaultKind::kDelay}) {
    if (mask & static_cast<FaultMask>(kind)) kinds.push_back(kind);
  }
  return kinds;
}

}  // namespace

Status FaultDecision::AsStatus(const std::string& point) const {
  if (!fired()) return Status::Ok();
  return Status::Unavailable("injected fault at " + point);
}

Status FaultPlan::Validate() const {
  if (!(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0)) {
    return Status::InvalidArgument("fault rate must be in [0, 1]");
  }
  for (const auto& [point, r] : point_rates) {
    if (!(std::isfinite(r) && r >= 0.0 && r <= 1.0)) {
      return Status::InvalidArgument("fault rate for point " + point + " must be in [0, 1]");
    }
  }
  if (!(std::isfinite(max_delay_ms) && max_delay_ms >= 0.0)) {
    return Status::InvalidArgument("max_delay_ms must be finite and non-negative");
  }
  return Status::Ok();
}

uint64_t PointHash(const std::string& point) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64-bit offset basis
  for (unsigned char c : point) {
    h ^= c;
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

Status FaultInjector::Arm(const FaultPlan& plan) {
  PPDP_RETURN_IF_ERROR(plan.Validate().Annotate("FaultInjector::Arm"));
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  points_.clear();
  armed_.store(true, std::memory_order_relaxed);
  PPDP_LOG(INFO) << "fault injector armed" << obs::Field("seed", plan.seed)
                 << obs::Field("rate", plan.rate);
  return Status::Ok();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  points_.clear();
}

FaultPlan FaultInjector::plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_;
}

FaultInjector::PointState& FaultInjector::StateFor(const std::string& point) {
  auto it = points_.find(point);
  if (it == points_.end()) {
    // Per-point stream: pure function of (plan seed, point name), so the
    // stream a point sees does not depend on which other points exist or
    // when they were first hit.
    it = points_.emplace(point, PointState(Rng(plan_.seed).Split(PointHash(point)))).first;
    it->second.fired_counter = &obs::MetricsRegistry::Global().counter("fault.fired." + point);
  }
  return it->second;
}

FaultDecision FaultInjector::Evaluate(std::string_view point_name, FaultMask mask) {
  if (!armed_.load(std::memory_order_relaxed)) return {};
  const std::string point(point_name);
  static obs::Counter& fired_metric = obs::MetricsRegistry::Global().counter("fault.fired");
  static obs::Counter& eval_metric = obs::MetricsRegistry::Global().counter("fault.evaluations");
  static obs::Counter& drops_metric = obs::MetricsRegistry::Global().counter("fault.drops");
  static obs::Counter& dups_metric = obs::MetricsRegistry::Global().counter("fault.duplicates");
  static obs::Counter& corrupt_metric =
      obs::MetricsRegistry::Global().counter("fault.corruptions");
  static obs::Counter& delay_metric = obs::MetricsRegistry::Global().counter("fault.delays");

  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return {};  // lost a Disarm race
  PointState& state = StateFor(point);
  ++state.stats.evaluations;
  eval_metric.Increment();

  auto rate_it = plan_.point_rates.find(point);
  const double rate = rate_it == plan_.point_rates.end() ? plan_.rate : rate_it->second;

  // Fixed deviate budget per evaluation (3 draws) regardless of outcome, so
  // an evaluation's decision depends only on its index — never on what
  // earlier evaluations decided.
  const double u_fire = state.rng.UniformReal();
  const uint64_t u_kind = state.rng.Uniform(1u << 16);
  const double u_magnitude = state.rng.UniformReal();

  FaultDecision decision;
  std::vector<FaultKind> kinds = KindsIn(mask);
  if (kinds.empty() || u_fire >= rate) return decision;

  decision.kind = kinds[u_kind % kinds.size()];
  switch (decision.kind) {
    case FaultKind::kCorrupt:
      decision.corrupt_bit = static_cast<uint32_t>(u_magnitude * 64.0);
      ++state.stats.corruptions;
      corrupt_metric.Increment();
      break;
    case FaultKind::kDelay:
      decision.delay_ms = u_magnitude * plan_.max_delay_ms;
      ++state.stats.delays;
      delay_metric.Increment();
      break;
    case FaultKind::kDrop:
      ++state.stats.drops;
      drops_metric.Increment();
      break;
    case FaultKind::kDuplicate:
      ++state.stats.duplicates;
      dups_metric.Increment();
      break;
    case FaultKind::kNone:
      break;
  }
  ++state.stats.fired;
  fired_metric.Increment();
  if (state.fired_counter != nullptr) state.fired_counter->Increment();
  {
    // Every fired decision goes to the flight recorder: a chaos postmortem
    // names the exact fault points (and evaluation indices) that hit.
    obs::FlightEvent event;
    event.category = "fault";
    event.severity = "WARN";
    event.label = point;
    const char* kind_name = decision.drop()        ? "drop"
                            : decision.duplicate() ? "duplicate"
                            : decision.corrupt()   ? "corrupt"
                                                   : "delay";
    event.message = std::string("kind=") + kind_name +
                    " index=" + std::to_string(state.stats.evaluations - 1) +
                    (decision.corrupt() ? " bit=" + std::to_string(decision.corrupt_bit) : "") +
                    (decision.delay() ? " delay_ms=" + Table::FormatDouble(decision.delay_ms, 3)
                                      : "");
    obs::FlightRecorder::Global().Record(std::move(event));
  }
  PPDP_LOG(DEBUG) << "fault fired" << obs::Field("point", point)
                  << obs::Field("kind", static_cast<int>(decision.kind))
                  << obs::Field("index", state.stats.evaluations - 1);
  return decision;
}

std::vector<std::string> FaultInjector::RegisteredPoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, unused_state] : points_) names.push_back(name);
  return names;  // std::map iteration is already name-sorted
}

FaultInjector::PointStats FaultInjector::StatsFor(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(point);
  return it == points_.end() ? PointStats{} : it->second.stats;
}

Table FaultInjector::Summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Table table({"point", "evaluations", "fired", "drops", "duplicates", "corruptions", "delays"});
  for (const auto& [name, state] : points_) {
    const PointStats& s = state.stats;
    table.AddRow({name, std::to_string(s.evaluations), std::to_string(s.fired),
                  std::to_string(s.drops), std::to_string(s.duplicates),
                  std::to_string(s.corruptions), std::to_string(s.delays)});
  }
  return table;
}

ScopedFaultPlan::ScopedFaultPlan(const FaultPlan& plan) {
  FaultInjector& injector = FaultInjector::Global();
  had_previous_ = injector.armed();
  if (had_previous_) previous_ = injector.plan();
  Status armed = injector.Arm(plan);
  PPDP_CHECK(armed.ok()) << armed.ToString();
}

ScopedFaultPlan::~ScopedFaultPlan() {
  FaultInjector& injector = FaultInjector::Global();
  if (had_previous_) {
    Status rearmed = injector.Arm(previous_);
    PPDP_CHECK(rearmed.ok()) << rearmed.ToString();
  } else {
    injector.Disarm();
  }
}

FaultPlan PlanFromEnv(uint64_t default_seed, double default_rate) {
  FaultPlan plan;
  plan.seed = default_seed;
  plan.rate = default_rate;
  if (const char* seed_env = std::getenv("PPDP_TEST_FAULT_SEED")) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(seed_env, &end, 10);
    if (end != seed_env && *end == '\0') plan.seed = static_cast<uint64_t>(parsed);
  }
  if (const char* rate_env = std::getenv("PPDP_TEST_FAULT_RATE")) {
    char* end = nullptr;
    double parsed = std::strtod(rate_env, &end);
    if (end != rate_env && *end == '\0' && std::isfinite(parsed) && parsed >= 0.0 &&
        parsed <= 1.0) {
      plan.rate = parsed;
    }
  }
  return plan;
}

}  // namespace ppdp::fault
