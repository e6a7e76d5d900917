// Offline inspector and regression gate for the repo's machine-readable
// artifacts, one subcommand per artifact:
//
//   $ ppdp_stat report  [flags] baseline.json current.json   # ppdp.bench.v1 phase gate
//   $ ppdp_stat profile [flags] profile.json [current.json]  # ppdp.profile.v1 tables / gate
//   $ ppdp_stat access  [flags] access.jsonl [current.jsonl] # ppdp.access.v1 tables / gate
//   $ ppdp_stat slo     [flags] alerts.jsonl | access.jsonl  # alert roll-up / SLO attainment
//   $ ppdp_stat prom    [--max_series N] [scrape.txt ...]    # Prometheus text lint (stdin)
//
// report: diffs per-phase wall-time totals of two BENCH_<name>.json files.
//   --threshold X (0.25)  --min_ms X (5)  relative and absolute slowdown gate
//   --mem_threshold X (0 = off)  --min_mem_mb X (16)  per-phase peak-RSS gate
//   --check_digests  also fail when an output CSV digest differs
//   --validate_only  schema-validate both files and exit
// profile: one file prints phase + top-frame tables; two diff self-frame
//   sample shares.  --threshold X (0.75)  --min_share X (0.02)  --top N (20)
//   --validate_only
// access: one log prints per-stage and per-tenant latency tables; two diff
//   per-stage mean latency.  --threshold X (0.25)  --min_ms X (1)
//   --tenant T (all)  --validate_only
// slo: auto-detects the log's schema from its first record. An alert log
//   is validated (legal transition chain, monotone time per instance) and
//   rolled up per instance; an access log is replayed against the
//   availability and latency rules of --slo_config (default: built-in
//   rules) for an offline attainment verdict.  --slo_config PATH
//   --validate_only
// prom: validates each exposition (stdin when no file is given) with
//   obs::ValidatePrometheusText.  --max_series N  fail above N series
//
// Every gate applies obs::Regressed: current > base * (1 + threshold) and
// current - base > floor. Flags take "--name value" or "--name=value";
// boolean flags never consume the next argument. An unknown flag or an
// unparsable or negative value is a usage error. Stdout keeps the wording
// of the single-purpose tools this replaced, so scripts reading it keep
// working. Exit codes, every subcommand: 0 ok, 1 gate tripped (regression,
// missed SLO, invalid exposition), 2 usage/IO/schema error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/math_util.h"
#include "common/result.h"
#include "common/status.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "serve/request_trace.h"

namespace ppdp {
namespace {

using serve::RequestRecord;

constexpr int kOk = 0;
constexpr int kTripped = 1;
constexpr int kError = 2;

/// Prints the verdict line and returns the matching exit code.
int Verdict(bool tripped, const char* tripped_line, const char* ok_line) {
  std::cout << (tripped ? tripped_line : ok_line) << "\n";
  return tripped ? kTripped : kOk;
}

// ---- One argv parser ----

enum FlagKind { kBool, kNumber, kCount, kString };

struct FlagSpec {
  const char* name;
  FlagKind kind;
};

/// One subcommand's parsed command line: validated flag values and the
/// positional file arguments, in order.
struct Args {
  std::map<std::string, std::string> values;
  std::vector<std::string> files;

  bool Has(const std::string& name) const { return values.count(name) > 0; }
  bool Bool(const std::string& name) const { return Has(name) && values.at(name) == "true"; }
  double Number(const std::string& name, double fallback) const {
    return Has(name) ? std::strtod(values.at(name).c_str(), nullptr) : fallback;
  }
  std::string String(const std::string& name) const { return Has(name) ? values.at(name) : ""; }
};

/// True when `value` parses as `kind`: a number is finite and non-negative,
/// a count is a positive integer, a boolean is "true" or "false", and a
/// string is non-empty.
bool ValidValue(FlagKind kind, const std::string& value) {
  char* end = nullptr;
  if (kind == kBool) return value == "true" || value == "false";
  if (kind == kString) return !value.empty();
  if (kind == kCount) return std::strtoll(value.c_str(), &end, 10) > 0 && *end == '\0';
  const double number = std::strtod(value.c_str(), &end);
  return !value.empty() && *end == '\0' && std::isfinite(number) && number >= 0.0;
}

/// Splits argv[first..] into declared flags and positional files. Returns
/// false with `error` set on an unknown flag or a missing or unparsable
/// value (`error` stays empty for --help).
bool ParseArgs(int argc, char** argv, int first, const std::vector<FlagSpec>& specs, Args* args,
               std::string* error) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args->files.push_back(std::move(arg));
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    auto spec = std::find_if(specs.begin(), specs.end(),
                             [&](const FlagSpec& s) { return name == s.name; });
    if (spec == specs.end()) {
      *error = name == "help" ? "" : "unknown flag --" + name;
      return false;
    }
    const std::string value = eq != std::string::npos ? arg.substr(eq + 1)
                              : spec->kind == kBool        ? "true"
                              : i + 1 < argc               ? argv[++i]
                                                           : "";
    if (!ValidValue(spec->kind, value)) {
      *error = "bad value '" + value + "' for --" + name;
      return false;
    }
    args->values[name] = value;
  }
  return true;
}

// ---- One JSONL reader ----

/// Reads every non-empty line of `path` as one JSON document.
Result<std::vector<JsonValue>> ReadJsonl(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  std::vector<JsonValue> records;
  std::string line;
  for (size_t line_number = 1; std::getline(file, line); ++line_number) {
    if (line.empty()) continue;
    Result<JsonValue> doc = JsonValue::Parse(line);
    if (!doc.ok()) return doc.status().Annotate(path + ":" + std::to_string(line_number));
    records.push_back(std::move(*doc));
  }
  return records;
}

/// Validates every record of an access log through the writer's own
/// serve::ValidateAccessRecord; `tenant` non-empty keeps only its records.
Result<std::vector<RequestRecord>> ParseAccessLog(const std::string& path,
                                                  const std::vector<JsonValue>& docs,
                                                  const std::string& tenant) {
  std::vector<RequestRecord> records;
  for (size_t i = 0; i < docs.size(); ++i) {
    RequestRecord record;
    PPDP_RETURN_IF_ERROR(serve::ValidateAccessRecord(docs[i], &record)
                             .Annotate(path + ": record " + std::to_string(i + 1)));
    if (tenant.empty() || record.tenant == tenant) records.push_back(std::move(record));
  }
  return records;
}

/// The "(builds differ ...)" note `report` and `profile` print under a diff.
void PrintBuildsDiffer(const std::string& base_type, const std::string& base_compiler,
                       const std::string& cur_type, const std::string& cur_compiler) {
  if (base_type == cur_type && base_compiler == cur_compiler) return;
  std::cout << "(builds differ: baseline " << base_type << " \"" << base_compiler
            << "\" vs current " << cur_type << " \"" << cur_compiler << "\")\n";
}

// ---- report ----

Result<int> RunReportCommand(const Args& args) {
  PPDP_ASSIGN_OR_RETURN(const obs::RunReport baseline, obs::RunReport::Load(args.files[0]));
  PPDP_ASSIGN_OR_RETURN(const obs::RunReport current, obs::RunReport::Load(args.files[1]));
  if (args.Bool("validate_only")) {
    std::cout << "ppdp_benchstat: both reports schema-valid (" << baseline.name << ", "
              << current.name << ")\n";
    return kOk;
  }
  if (baseline.name != current.name) {
    return Status::InvalidArgument("comparing different benches: \"" + baseline.name +
                                   "\" vs \"" + current.name + "\"");
  }

  obs::DiffOptions options;
  options.threshold = args.Number("threshold", options.threshold);
  options.min_ms = args.Number("min_ms", options.min_ms);
  options.check_digests = args.Bool("check_digests");
  options.mem_threshold = args.Number("mem_threshold", options.mem_threshold);
  const double min_mem_mb = args.Number("min_mem_mb", 16.0);
  options.min_mem_bytes = static_cast<uint64_t>(min_mem_mb * (1 << 20));

  obs::ReportDiff diff = obs::DiffReports(baseline, current, options);
  std::cout << "== benchstat: " << current.name << " (threshold +"
            << static_cast<int>(options.threshold * 100) << "%, floor " << options.min_ms
            << " ms";
  if (options.mem_threshold > 0.0) {
    std::cout << "; mem +" << static_cast<int>(options.mem_threshold * 100) << "%, floor "
              << min_mem_mb << " MB";
  }
  std::cout << ") ==\n";
  diff.Summary().Print(std::cout);
  PrintBuildsDiffer(baseline.build.build_type, baseline.build.compiler, current.build.build_type,
                    current.build.compiler);
  for (const std::string& name : diff.digest_mismatches) {
    std::cout << "(output digest differs: " << name << ")\n";
  }
  // SLO attainment is informational here, never a perf gate: an unmet SLO
  // in a bench run is judged by `slo` or by the bench itself.
  if (!current.slos.empty()) {
    std::cout << "(slos:";
    for (const obs::SloAttainment& slo : current.slos) {
      std::cout << " " << slo.rule << "=" << (slo.met ? "met" : "MISSED");
    }
    std::cout << ")\n";
  }
  return Verdict(diff.regressed,
                 "REGRESSION: at least one phase slowed (or grew memory) beyond the gate",
                 "ok: no phase regressed");
}

// ---- profile ----

Result<int> RunProfileCommand(const Args& args) {
  std::vector<obs::CpuProfile> profiles;
  for (const std::string& path : args.files) {
    PPDP_ASSIGN_OR_RETURN(obs::CpuProfile loaded, obs::CpuProfile::Load(path));
    profiles.push_back(std::move(loaded));
  }
  const obs::CpuProfile& profile = profiles[0];
  if (profiles.size() == 1) {
    if (args.Bool("validate_only")) {
      std::cout << "ppdp_profstat: schema-valid (" << profile.name << ", " << profile.samples
                << " samples @ " << profile.hz << " Hz, " << profile.threads_profiled
                << " threads)\n";
      return kOk;
    }
    const size_t top = static_cast<size_t>(args.Number("top", 20));
    std::cout << "== profile: " << profile.name << " (" << profile.samples << " samples @ "
              << profile.hz << " Hz, " << profile.threads_profiled << " threads, "
              << profile.dropped << " dropped) ==\n";
    profile.PhaseTable().Print(std::cout);
    std::cout << "\n== top " << top << " self frames ==\n";
    profile.TopFramesTable(top).Print(std::cout);
    if (profile.stacks_truncated > 0) {
      std::cout << "(" << profile.stacks_truncated << " unique stacks beyond the top "
                << obs::CpuProfile::kMaxStacks << " not retained)\n";
    }
    return kOk;
  }

  const obs::CpuProfile& current = profiles[1];
  if (args.Bool("validate_only")) {
    std::cout << "ppdp_profstat: both profiles schema-valid (" << profile.name << ", "
              << current.name << ")\n";
    return kOk;
  }
  obs::ProfileDiffOptions options;
  options.threshold = args.Number("threshold", options.threshold);
  options.min_share = args.Number("min_share", options.min_share);
  obs::ProfileDiff diff = obs::DiffProfiles(profile, current, options);
  std::cout << "== profstat: " << current.name << " (threshold +"
            << static_cast<int>(options.threshold * 100) << "%, floor "
            << options.min_share * 100 << "pp) ==\n";
  diff.Summary().Print(std::cout);
  PrintBuildsDiffer(profile.build_type, profile.compiler, current.build_type, current.compiler);
  return Verdict(diff.regressed, "REGRESSION: at least one frame's self-share grew beyond the gate",
                 "ok: no frame regressed");
}

// ---- access ----

struct StageStats {
  uint64_t count = 0;
  double total_micros = 0.0;
  double max_micros = 0.0;

  void Add(double micros) {
    ++count;
    total_micros += micros;
    max_micros = std::max(max_micros, micros);
  }
  double mean_micros() const { return count == 0 ? 0.0 : total_micros / count; }
};
using StageBreakdown = std::map<std::string, StageStats>;

/// Folds one request into a stage -> stats map ("total" is the whole request).
void AddRequest(const RequestRecord& record, StageBreakdown* stats) {
  (*stats)["total"].Add(record.total_micros);
  for (const serve::StageMicros& stage : record.stages) (*stats)[stage.name].Add(stage.micros);
}

std::string Ms(double micros) { return Table::FormatDouble(micros / 1e3, 3); }

Result<int> RunAccessCommand(const Args& args) {
  std::vector<std::vector<RequestRecord>> logs(args.files.size());
  std::vector<StageBreakdown> breakdowns(logs.size());
  for (size_t i = 0; i < logs.size(); ++i) {
    PPDP_ASSIGN_OR_RETURN(const std::vector<JsonValue> docs, ReadJsonl(args.files[i]));
    PPDP_ASSIGN_OR_RETURN(logs[i], ParseAccessLog(args.files[i], docs, args.String("tenant")));
    if (args.Bool("validate_only")) {
      std::cout << "ppdp_tracestat: " << args.files[i] << ": " << logs[i].size()
                << " records valid\n";
    }
    for (const RequestRecord& record : logs[i]) AddRequest(record, &breakdowns[i]);
  }
  if (args.Bool("validate_only")) return kOk;

  if (logs.size() == 1) {
    // Aggregation mode: per-stage summary, then tenant x stage breakdown.
    Table stage_table({"stage", "count", "total ms", "mean ms", "max ms"});
    for (const auto& [stage, stats] : breakdowns[0]) {
      stage_table.AddRow({stage, std::to_string(stats.count), Ms(stats.total_micros),
                          Ms(stats.mean_micros()), Ms(stats.max_micros)});
    }
    std::cout << "== tracestat: " << args.files[0] << " (" << logs[0].size() << " requests) ==\n";
    stage_table.Print(std::cout);

    std::map<std::string, StageBreakdown> by_tenant;
    std::map<std::string, uint64_t> errors;
    for (const RequestRecord& record : logs[0]) {
      AddRequest(record, &by_tenant[record.tenant]);
      if (record.status >= 400) ++errors[record.tenant];
    }
    Table tenant_table({"tenant", "stage", "count", "mean ms", "max ms"});
    for (const auto& [name, stages] : by_tenant) {
      for (const auto& [stage, stats] : stages) {
        tenant_table.AddRow({name, stage, std::to_string(stats.count), Ms(stats.mean_micros()),
                             Ms(stats.max_micros)});
      }
    }
    tenant_table.Print(std::cout);
    for (const auto& [name, count] : errors) {
      std::cout << "(tenant " << name << ": " << count << " non-2xx responses)\n";
    }
    return kOk;
  }

  // Diff mode: per-stage mean latency, baseline vs current.
  const double threshold = args.Number("threshold", 0.25);
  const double min_ms = args.Number("min_ms", 1.0);
  bool regressed = false;
  Table diff({"stage", "base mean ms", "cur mean ms", "delta ms", "delta %", "verdict"});
  for (const auto& [stage, cur] : breakdowns[1]) {
    auto it = breakdowns[0].find(stage);
    if (it == breakdowns[0].end()) continue;  // new stage: nothing to gate against
    const double base_mean = it->second.mean_micros();
    const double cur_mean = cur.mean_micros();
    const double relative = base_mean > 0.0 ? (cur_mean - base_mean) / base_mean : 0.0;
    const bool slow = obs::Regressed(base_mean, cur_mean, threshold, min_ms * 1e3);
    regressed = regressed || slow;
    diff.AddRow({stage, Ms(base_mean), Ms(cur_mean), Ms(cur_mean - base_mean),
                 Table::FormatDouble(relative * 100.0, 1), slow ? "REGRESSED" : "ok"});
  }
  std::cout << "== tracestat diff: " << args.files[0] << " -> " << args.files[1]
            << " (threshold +" << static_cast<int>(threshold * 100) << "%, floor " << min_ms
            << " ms) ==\n";
  diff.Print(std::cout);
  return Verdict(regressed, "REGRESSION: at least one stage slowed beyond the gate",
                 "ok: no stage regressed");
}

// ---- slo ----

/// Per-alert-instance roll-up of an alert log.
struct InstanceSummary {
  uint64_t transitions = 0;
  uint64_t fired = 0;
  double firing_seconds = 0.0;  ///< closed firing->resolved intervals only
  double firing_since = -1.0;
  double last_t = -1.0;
  std::string last_state;
  std::string severity;
};

Result<int> RunAlertLog(const std::string& path, const std::vector<JsonValue>& records,
                        bool validate_only) {
  std::map<std::string, InstanceSummary> instances;
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonValue& doc = records[i];
    const std::string where = path + ": record " + std::to_string(i + 1);
    PPDP_RETURN_IF_ERROR(obs::ValidateAlertLogRecord(doc).Annotate(where));
    const std::string rule = doc.GetStringOr("rule", "");
    const std::string tenant = doc.GetStringOr("tenant", "");
    const std::string key = tenant.empty() ? rule : rule + "/" + tenant;
    const double t = doc.GetNumberOr("t_seconds", 0.0);
    const std::string from = doc.GetStringOr("from", "");
    const std::string to = doc.GetStringOr("to", "");
    InstanceSummary& summary = instances[key];
    if (summary.last_t > t) {
      return Status::InvalidArgument(where + ": timestamps for '" + key + "' go backwards");
    }
    if (!summary.last_state.empty() && summary.last_state != from) {
      return Status::InvalidArgument(where + ": '" + key + "' transitions from '" + from +
                                     "' but was last seen in '" + summary.last_state + "'");
    }
    summary.last_t = t;
    summary.last_state = to;
    summary.severity = doc.GetStringOr("severity", "");
    ++summary.transitions;
    if (to == "firing") {
      ++summary.fired;
      summary.firing_since = t;
    } else if (to == "resolved" && summary.firing_since >= 0) {
      summary.firing_seconds += t - summary.firing_since;
      summary.firing_since = -1.0;
    }
  }
  if (validate_only) {
    std::cout << "ppdp_slostat: " << path << ": " << records.size() << " records valid\n";
    return kOk;
  }
  Table table({"alert", "severity", "transitions", "fired", "firing s", "last state"});
  for (const auto& [key, summary] : instances) {
    table.AddRow({key, summary.severity, std::to_string(summary.transitions),
                  std::to_string(summary.fired), Table::FormatDouble(summary.firing_seconds, 3),
                  summary.last_state});
  }
  std::cout << "== slostat: " << path << " (" << records.size() << " transitions, "
            << instances.size() << " alert instances) ==\n";
  table.Print(std::cout);
  return kOk;
}

Result<int> RunAttainment(const std::string& path, const std::vector<JsonValue>& docs,
                          const std::vector<obs::AlertRule>& rules, bool validate_only) {
  PPDP_ASSIGN_OR_RETURN(const std::vector<RequestRecord> records, ParseAccessLog(path, docs, ""));
  if (validate_only) {
    std::cout << "ppdp_slostat: " << path << ": " << records.size() << " records valid\n";
    return kOk;
  }
  uint64_t errors_5xx = 0;
  std::vector<double> latencies_seconds;
  for (const RequestRecord& record : records) {
    if (record.status >= 500) ++errors_5xx;
    latencies_seconds.push_back(record.total_micros / 1e6);
  }
  std::sort(latencies_seconds.begin(), latencies_seconds.end());

  bool violated = false;
  size_t judged = 0;
  Table table({"rule", "signal", "objective", "attained", "verdict"});
  for (const obs::AlertRule& rule : rules) {
    // The access log answers availability and latency offline; queue and
    // ledger-burn need live windows and are skipped (and said so).
    const bool availability = rule.signal == obs::AlertRule::Signal::kAvailability;
    if (!availability && rule.signal != obs::AlertRule::Signal::kLatency) {
      table.AddRow({rule.name, obs::SignalName(rule.signal), "-", "-", "skipped"});
      continue;
    }
    double attained = 0.0;
    if (availability) {
      attained = 1.0 - static_cast<double>(errors_5xx) / static_cast<double>(records.size());
    } else {
      attained = QuantileOfSorted(latencies_seconds, rule.quantile);
    }
    const bool met = availability ? attained >= rule.objective : attained <= rule.threshold;
    violated = violated || !met;
    ++judged;
    table.AddRow({rule.name, availability ? "availability" : "latency",
                  Table::FormatDouble(availability ? rule.objective : rule.threshold, 4),
                  Table::FormatDouble(attained, 4), met ? "met" : "VIOLATED"});
  }
  std::cout << "== slostat attainment: " << path << " (" << records.size() << " requests, "
            << errors_5xx << " 5xx) ==\n";
  table.Print(std::cout);
  if (judged == 0) return Status::InvalidArgument("no availability/latency rules to judge offline");
  return Verdict(violated, "VIOLATED: at least one SLO missed its objective",
                 "ok: all judged SLOs attained");
}

Result<int> RunSloCommand(const Args& args) {
  const std::string& path = args.files[0];
  const bool validate_only = args.Bool("validate_only");
  std::vector<obs::AlertRule> rules = obs::DefaultSloRules();
  if (args.Has("slo_config")) {
    PPDP_ASSIGN_OR_RETURN(rules, obs::LoadSloConfig(args.String("slo_config")));
  }
  PPDP_ASSIGN_OR_RETURN(const std::vector<JsonValue> records, ReadJsonl(path));
  if (records.empty() && !validate_only) return Status::InvalidArgument(path + ": empty log");
  // An empty log validates as an empty alert log: "0 records valid".
  const std::string schema =
      records.empty() ? "ppdp.alertlog.v1" : records.front().GetStringOr("schema", "");
  if (schema == "ppdp.alertlog.v1") return RunAlertLog(path, records, validate_only);
  if (schema == "ppdp.access.v1") return RunAttainment(path, records, rules, validate_only);
  return Status::InvalidArgument(path + ": unrecognized schema '" + schema +
                                 "' (want ppdp.alertlog.v1 or ppdp.access.v1)");
}

// ---- prom ----

/// Validates one exposition and applies the --max_series cardinality lint.
int CheckExposition(const std::string& label, const std::string& text, size_t max_series) {
  if (Status status = obs::ValidatePrometheusText(text); !status.ok()) {
    std::cerr << "ppdp_stat prom: " << label << ": " << status.ToString() << "\n";
    return kTripped;
  }
  // Every non-empty line that is not a HELP/TYPE comment is one series.
  size_t series = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] != '#') ++series;
  }
  if (max_series > 0 && series > max_series) {
    std::cerr << "ppdp_stat prom: " << label << ": " << series << " series exceeds --max_series="
              << max_series << "\n";
    return kTripped;
  }
  std::cout << "ppdp_promcheck: " << label << ": ok (" << series << " series)\n";
  return kOk;
}

Result<int> RunPromCommand(const Args& args) {
  const size_t max_series = static_cast<size_t>(args.Number("max_series", 0));
  if (args.files.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return CheckExposition("<stdin>", buffer.str(), max_series);
  }
  for (const std::string& path : args.files) {
    std::ifstream file(path);
    if (!file) return Status::NotFound("cannot open " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    if (int status = CheckExposition(path, buffer.str(), max_series); status != kOk) return status;
  }
  return kOk;
}

// ---- Dispatch ----

struct Command {
  const char* name;
  std::vector<FlagSpec> flags;
  const char* files;  ///< positional arguments, for the usage line
  size_t min_files, max_files;
  Result<int> (*run)(const Args&);
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"report",
       {{"threshold", kNumber}, {"min_ms", kNumber}, {"mem_threshold", kNumber},
        {"min_mem_mb", kNumber}, {"check_digests", kBool}, {"validate_only", kBool}},
       "baseline.json current.json", 2, 2, RunReportCommand},
      {"profile",
       {{"threshold", kNumber}, {"min_share", kNumber}, {"top", kCount}, {"validate_only", kBool}},
       "profile.json [current.json]", 1, 2, RunProfileCommand},
      {"access",
       {{"threshold", kNumber}, {"min_ms", kNumber}, {"tenant", kString}, {"validate_only", kBool}},
       "access.jsonl [current.jsonl]", 1, 2, RunAccessCommand},
      {"slo", {{"slo_config", kString}, {"validate_only", kBool}},
       "alerts.jsonl | access.jsonl", 1, 1, RunSloCommand},
      {"prom", {{"max_series", kCount}}, "[scrape.txt ...] (default: stdin)", 0,
       SIZE_MAX, RunPromCommand},
  };
  return commands;
}

/// Prints the usage line of `only` (every subcommand when null); exits 2.
int Usage(const Command* only) {
  for (const Command& command : Commands()) {
    if (only != nullptr && only != &command) continue;
    std::cerr << "usage: ppdp_stat " << command.name;
    for (const FlagSpec& flag : command.flags) {
      std::cerr << " [--" << flag.name << (flag.kind == kBool ? "]" : " X]");
    }
    std::cerr << " " << command.files << "\n";
  }
  return kError;
}

int Main(int argc, char** argv) {
  const std::string name = argc < 2 ? "" : argv[1];
  auto command = std::find_if(Commands().begin(), Commands().end(),
                              [&](const Command& c) { return name == c.name; });
  if (command == Commands().end()) return Usage(nullptr);
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, 2, command->flags, &args, &error)) {
    if (!error.empty()) std::cerr << "ppdp_stat " << command->name << ": " << error << "\n";
    return Usage(&*command);
  }
  if (args.files.size() < command->min_files || args.files.size() > command->max_files) {
    return Usage(&*command);
  }
  const Result<int> code = command->run(args);
  if (code.ok()) return *code;
  std::cerr << "ppdp_stat " << command->name << ": " << code.status().ToString() << "\n";
  return kError;
}

}  // namespace
}  // namespace ppdp

int main(int argc, char** argv) { return ppdp::Main(argc, argv); }
