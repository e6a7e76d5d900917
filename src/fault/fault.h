#ifndef PPDP_FAULT_FAULT_H_
#define PPDP_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"

namespace ppdp::obs {
class Counter;
}  // namespace ppdp::obs

namespace ppdp::fault {

/// What an armed failure point does to the operation passing through it.
enum class FaultKind : uint32_t {
  kNone = 0,       ///< pass through untouched
  kDrop = 1,       ///< the operation is lost (message dropped, call fails)
  kDuplicate = 2,  ///< the operation is applied twice (message replayed)
  kCorrupt = 4,    ///< the payload is bit-flipped in flight
  kDelay = 8,      ///< the operation is late by FaultDecision::delay_ms
};

/// Bitmask of FaultKind values a call site is able to honor. Sites pass the
/// subset that makes sense for them (a CSV read can drop but not duplicate;
/// an executor chunk can only be late).
using FaultMask = uint32_t;

constexpr FaultMask kMaskNone = 0;
constexpr FaultMask kMaskDrop = static_cast<FaultMask>(FaultKind::kDrop);
constexpr FaultMask kMaskDuplicate = static_cast<FaultMask>(FaultKind::kDuplicate);
constexpr FaultMask kMaskCorrupt = static_cast<FaultMask>(FaultKind::kCorrupt);
constexpr FaultMask kMaskDelay = static_cast<FaultMask>(FaultKind::kDelay);
constexpr FaultMask kMaskAll = kMaskDrop | kMaskDuplicate | kMaskCorrupt | kMaskDelay;

/// The verdict of one failure-point evaluation. Default-constructed =
/// "no fault": the call site proceeds normally.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  /// For kCorrupt: which bit of the payload to flip (site interprets).
  uint32_t corrupt_bit = 0;
  /// For kDelay: injected latency in (virtual or real) milliseconds.
  double delay_ms = 0.0;

  bool fired() const { return kind != FaultKind::kNone; }
  bool drop() const { return kind == FaultKind::kDrop; }
  bool duplicate() const { return kind == FaultKind::kDuplicate; }
  bool corrupt() const { return kind == FaultKind::kCorrupt; }
  bool delay() const { return kind == FaultKind::kDelay; }

  /// Canonical Status for a site that must fail the operation on a fired
  /// fault (kUnavailable, message names the point). Used by sites whose
  /// only sensible reaction to kDrop is an error return.
  Status AsStatus(const std::string& point) const;
};

/// A deterministic chaos schedule: every fault the injector will ever fire
/// is a pure function of (seed, rate, point name, evaluation index at that
/// point). Replaying a run with the same plan and the same per-point call
/// sequence reproduces the fault sequence byte-identically — the property
/// fault_test asserts and the chaos CI matrix sweeps.
struct FaultPlan {
  uint64_t seed = 1;
  /// Probability that an evaluation fires, in [0, 1]. 0 = armed but inert.
  double rate = 0.0;
  /// Per-point overrides of `rate` (exact point-name match).
  std::map<std::string, double> point_rates;
  /// Upper bound of injected kDelay latencies.
  double max_delay_ms = 5.0;

  /// Rejects rates outside [0, 1], a non-finite/negative max delay.
  Status Validate() const;
};

/// Process-wide, seed-driven fault injector. Disarmed by default: every
/// PPDP_FAULT_POINT evaluation is a single relaxed atomic load and returns
/// "no fault", so production paths pay nothing. Arm(plan) switches the
/// process into chaos mode.
///
/// Determinism contract: each named point owns an Rng stream derived as
/// Rng(plan.seed).Split(fnv1a(point)), and the i-th evaluation at a point
/// consumes a fixed number of deviates from that stream. The decision for
/// (plan, point, i) is therefore a pure function — independent of which
/// other points were hit in between — and any serial call site replays its
/// exact fault sequence under the same plan. (Concurrent sites each see a
/// deterministic *set* of decisions; per-call attribution requires the
/// site itself to be serial, which all replay-tested sites are.)
class FaultInjector {
 public:
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Validates and installs `plan`, resetting all per-point streams and
  /// counters. The injector stays armed until Disarm().
  Status Arm(const FaultPlan& plan);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  /// The currently armed plan (meaningful only while armed()).
  FaultPlan plan() const;

  /// Evaluates the failure point `point`, honoring only kinds in `mask`.
  /// Registers the point on first evaluation. Returns "no fault" when
  /// disarmed, without copying the name. Fired decisions increment the
  /// "fault.fired" metric.
  FaultDecision Evaluate(std::string_view point, FaultMask mask);

  /// Every point name evaluated since the last Arm (sorted).
  std::vector<std::string> RegisteredPoints() const;

  /// Per-point accounting of the current armed session.
  struct PointStats {
    uint64_t evaluations = 0;
    uint64_t fired = 0;
    uint64_t drops = 0;
    uint64_t duplicates = 0;
    uint64_t corruptions = 0;
    uint64_t delays = 0;
  };
  PointStats StatsFor(const std::string& point) const;

  /// Audit table: point, evaluations, fired, drops, duplicates,
  /// corruptions, delays. Rows sorted by point name.
  Table Summary() const;

 private:
  struct PointState {
    Rng rng;
    PointStats stats;
    /// Per-point "fault.fired.<point>" counter, resolved once at
    /// registration so the fire path pays one atomic add.
    obs::Counter* fired_counter = nullptr;
    explicit PointState(Rng r) : rng(std::move(r)) {}
  };

  PointState& StateFor(const std::string& point);  // requires mutex_ held

  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::map<std::string, PointState> points_;
};

/// RAII plan installer for tests and benches: arms the global injector on
/// construction (PPDP_CHECK on an invalid plan) and restores the previous
/// state — disarmed, or the previously armed plan — on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
  ~ScopedFaultPlan();

 private:
  bool had_previous_ = false;
  FaultPlan previous_;
};

/// Builds a plan from the PPDP_TEST_FAULT_SEED / PPDP_TEST_FAULT_RATE
/// environment variables (falling back to `default_seed` / `default_rate`
/// when unset or unparsable) — how the chaos CI matrix parameterizes the
/// fault suites without touching their code.
FaultPlan PlanFromEnv(uint64_t default_seed, double default_rate);

}  // namespace ppdp::fault

/// Evaluates the named failure point against the global injector.
/// `mask` declares which fault kinds the call site honors.
///
///   fault::FaultDecision f = PPDP_FAULT_POINT("iot.send", fault::kMaskAll);
///   if (f.drop()) return;  // message lost in flight
#define PPDP_FAULT_POINT(point, mask) \
  ::ppdp::fault::FaultInjector::Global().Evaluate((point), (mask))

#endif  // PPDP_FAULT_FAULT_H_
