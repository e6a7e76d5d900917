#ifndef PPDP_OBS_REPORT_H_
#define PPDP_OBS_REPORT_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "common/table.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace ppdp::obs {

/// FNV-1a 64-bit digest of a file's bytes. The same hash family the IoT
/// envelope checksum uses; here it makes bench output CSVs auditable from
/// the run-report artifact alone (determinism across thread counts or
/// machines is checkable without shipping the CSVs).
Result<uint64_t> FileDigestFnv1a(const std::string& path);
/// 16 lowercase hex digits.
std::string DigestToHex(uint64_t digest);

/// Machine-readable record of how one bench run produced its numbers: the
/// exact invocation (flags/seed/threads/scale), build metadata, the armed
/// fault plan, per-phase wall+CPU timings aggregated from TraceSpans,
/// latency percentiles from MetricsRegistry histograms, every privacy
/// ledger's audit trail, and digests of every output CSV. Serialized as
/// bench_out/BENCH_<name>.json by the bench harness and diffed by
/// `ppdp_stat report`.
struct RunReport {
  static constexpr int kSchemaVersion = 1;
  /// Document type tag ("ppdp.bench.v1").
  static const char* SchemaTag();

  std::string name;    ///< short bench name ("dp_synthesis")
  std::string binary;  ///< argv[0] basename ("bench_dp_synthesis")
  std::map<std::string, std::string> flags;
  uint64_t seed = 0;
  int threads = 0;
  double scale = 1.0;

  struct BuildInfo {
    std::string compiler;   ///< e.g. "g++ 13.2.0" (__VERSION__)
    std::string build_type; ///< "release" (NDEBUG) or "debug"
    std::string platform;   ///< e.g. "linux-64bit"
    long cxx_standard = 0;  ///< __cplusplus
  };
  BuildInfo build;

  struct FaultInfo {
    bool armed = false;
    uint64_t seed = 0;
    double rate = 0.0;
    std::map<std::string, double> point_rates;
  };
  FaultInfo fault;

  std::vector<TraceRecorder::PhaseStats> phases;
  std::vector<MetricsRegistry::HistogramSummary> histograms;
  std::vector<std::pair<std::string, uint64_t>> counters;

  /// One audited ledger (a bench can run several, e.g. per sweep point).
  struct LedgerAudit {
    std::string name;
    PrivacyLedger::BudgetSnapshot budget;
    std::vector<PrivacyLedger::Entry> entries;
  };
  std::vector<LedgerAudit> ledgers;

  struct OutputDigest {
    std::string name;  ///< table name as passed to BenchEnv::Emit
    std::string path;
    uint64_t bytes = 0;
    std::string fnv1a;  ///< DigestToHex of the file content
  };
  std::vector<OutputDigest> outputs;

  double wall_seconds = 0.0;  ///< process wall time at emission
  double cpu_seconds = 0.0;   ///< process CPU time at emission

  struct FlightStats {
    uint64_t recorded = 0;
    uint64_t retained = 0;
    bool dumped = false;
  };
  FlightStats flight;

  /// SLO attainment rows (bench_serve with --slo_config or defaults). Only
  /// serialized when non-empty, so pre-v10 baselines and non-serving
  /// benches are byte-unchanged; readers treat an absent stanza as "no SLOs
  /// measured", never as a violation.
  std::vector<SloAttainment> slos;

  /// Link to the sampling profile captured alongside this run (absent when
  /// --profile_hz=0, the default — the zero-overhead path writes nothing).
  struct ProfileInfo {
    bool enabled = false;
    int hz = 0;
    std::string path;         ///< the ppdp.profile.v1 JSON
    std::string folded_path;  ///< collapsed stacks for flamegraph/speedscope
    uint64_t samples = 0;
    uint64_t dropped = 0;
  };
  ProfileInfo profile;

  JsonValue ToJson() const;
  Status WriteJson(const std::string& path) const;
  /// The one reader of the schema, and the check CI and `ppdp_stat` rely
  /// on: fails on the first violation of the schema tag and version, a
  /// required top-level key of the wrong JSON kind, or a malformed phase,
  /// output, fault or SLO entry. Unknown keys are ignored, so newer writers
  /// stay diffable against older baselines.
  static Result<RunReport> FromJson(const JsonValue& doc);
  static Result<RunReport> Load(const std::string& path);
};

/// The header check of both `ppdp.*` document readers (RunReport::FromJson,
/// CpuProfile::FromJson): an object tagged `schema`, `schema_version` >= 1,
/// and each `required` key of its JSON kind. Returns the first violation.
Status CheckDocumentHeader(const JsonValue& doc, const char* schema,
                           std::initializer_list<std::pair<const char*, JsonValue::Kind>> required);

/// Build metadata from compile-time macros.
RunReport::BuildInfo CurrentBuildInfo();

/// Fills `report`'s telemetry sections from the obs-layer global collectors:
/// build info, trace phases, metric histograms/counters, flight-recorder
/// stats, and wall/CPU totals. Flags/seed/outputs/ledgers/fault stay
/// untouched — the bench harness owns those (fault lives in ppdp_fault,
/// which links against this library, so the dependency cannot point back).
void CollectGlobalTelemetry(RunReport* report);

/// ---- `ppdp_stat report`: phase-by-phase perf diff with a noise threshold ----

/// The one regression rule every offline gate applies (phase time and peak
/// RSS here, frame share in DiffProfiles, access-log stage latency in
/// `ppdp_stat access`): `current` regressed when it exceeds
/// `baseline * (1 + threshold)` AND `current - baseline > floor`. Both
/// parts matter: sub-noise quantities can triple without meaning anything.
bool Regressed(double baseline, double current, double threshold, double floor);

struct DiffOptions {
  /// Relative slowdown tolerated before a phase counts as regressed
  /// (0.25 = +25%).
  double threshold = 0.25;
  /// Phases must additionally slow down by at least this many absolute
  /// milliseconds — sub-noise phases can triple without meaning anything.
  double min_ms = 5.0;
  /// Also fail when an output digest present in both reports differs
  /// (determinism audit; off by default since baselines may be produced by
  /// a different compiler).
  bool check_digests = false;
  /// Relative growth of a phase's peak RSS tolerated before the phase
  /// counts as a memory regression (0.5 = +50%). 0 disables the memory
  /// gate — the default, since pre-v6 baselines carry no memory numbers.
  double mem_threshold = 0.0;
  /// Peak RSS must additionally grow by this many absolute bytes.
  uint64_t min_mem_bytes = 16ull << 20;
};

struct PhaseDelta {
  std::string name;
  double baseline_ms = 0.0;
  double current_ms = 0.0;
  double ratio = 0.0;  ///< current / baseline (0 when baseline is 0)
  bool regressed = false;
  bool only_in_baseline = false;
  bool only_in_current = false;
  uint64_t baseline_rss_peak = 0;  ///< bytes; 0 when the report predates v6
  uint64_t current_rss_peak = 0;
  bool mem_regressed = false;  ///< only when DiffOptions::mem_threshold > 0
};

struct ReportDiff {
  std::vector<PhaseDelta> phases;  ///< baseline order, then new phases
  std::vector<std::string> digest_mismatches;
  bool regressed = false;  ///< any phase regression (or digest mismatch when checked)
  double baseline_total_ms = 0.0;
  double current_total_ms = 0.0;

  /// phase | baseline ms | current ms | ratio | verdict table plus a TOTAL row.
  Table Summary() const;
};

/// Diffs `current` against `baseline`. Phases present on only one side are
/// reported but never count as regressions (benches evolve); slowdowns
/// beyond both the relative threshold and the absolute floor do.
ReportDiff DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& options);

}  // namespace ppdp::obs

#endif  // PPDP_OBS_REPORT_H_
