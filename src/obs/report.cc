#include "obs/report.h"

#include <fstream>

#include "obs/log.h"
#include "obs/profiler.h"
#include "obs/recorder.h"

namespace ppdp::obs {

Result<uint64_t> FileDigestFnv1a(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open " + path + " for digesting");
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64-bit offset basis
  char buffer[4096];
  while (file.read(buffer, sizeof(buffer)) || file.gcount() > 0) {
    std::streamsize n = file.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buffer[i]);
      h *= 0x100000001B3ULL;  // FNV prime
    }
    if (!file) break;
  }
  return h;
}

std::string DigestToHex(uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

const char* RunReport::SchemaTag() { return "ppdp.bench.v1"; }

RunReport::BuildInfo CurrentBuildInfo() {
  RunReport::BuildInfo info;
#if defined(__VERSION__)
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
#if defined(NDEBUG)
  info.build_type = "release";
#else
  info.build_type = "debug";
#endif
#if defined(__linux__)
  info.platform = "linux";
#elif defined(__APPLE__)
  info.platform = "darwin";
#else
  info.platform = "unknown";
#endif
  info.platform += sizeof(void*) == 8 ? "-64bit" : "-32bit";
  info.cxx_standard = static_cast<long>(__cplusplus);
  return info;
}

void CollectGlobalTelemetry(RunReport* report) {
  report->build = CurrentBuildInfo();
  report->phases = TraceRecorder::Global().PhaseStatsSorted();
  report->histograms = MetricsRegistry::Global().HistogramSummaries();
  report->counters = MetricsRegistry::Global().CounterValues();

  FlightRecorder& recorder = FlightRecorder::Global();
  report->flight.recorded = recorder.total_recorded();
  report->flight.retained = recorder.size();
  report->flight.dumped = recorder.dumped();

  report->wall_seconds = MonotonicSeconds();
  const ProcessCpu cpu = ReadProcessCpu();
  report->cpu_seconds = cpu.user_seconds + cpu.system_seconds;
}

JsonValue RunReport::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String(SchemaTag()));
  doc.Set("schema_version", JsonValue::Number(kSchemaVersion));
  doc.Set("name", JsonValue::String(name));
  doc.Set("binary", JsonValue::String(binary));

  JsonValue flag_obj = JsonValue::Object();
  for (const auto& [key, value] : flags) flag_obj.Set(key, JsonValue::String(value));
  doc.Set("flags", std::move(flag_obj));
  doc.Set("seed", JsonValue::Number(static_cast<double>(seed)));
  doc.Set("threads", JsonValue::Number(threads));
  doc.Set("scale", JsonValue::Number(scale));

  JsonValue build_obj = JsonValue::Object();
  build_obj.Set("compiler", JsonValue::String(build.compiler));
  build_obj.Set("build_type", JsonValue::String(build.build_type));
  build_obj.Set("platform", JsonValue::String(build.platform));
  build_obj.Set("cxx_standard", JsonValue::Number(static_cast<double>(build.cxx_standard)));
  doc.Set("build", std::move(build_obj));

  JsonValue fault_obj = JsonValue::Object();
  fault_obj.Set("armed", JsonValue::Bool(fault.armed));
  fault_obj.Set("seed", JsonValue::Number(static_cast<double>(fault.seed)));
  fault_obj.Set("rate", JsonValue::Number(fault.rate));
  JsonValue rates_obj = JsonValue::Object();
  for (const auto& [point, rate] : fault.point_rates) {
    rates_obj.Set(point, JsonValue::Number(rate));
  }
  fault_obj.Set("point_rates", std::move(rates_obj));
  doc.Set("fault", std::move(fault_obj));

  JsonValue phase_array = JsonValue::Array();
  for (const TraceRecorder::PhaseStats& p : phases) {
    JsonValue row = JsonValue::Object();
    row.Set("name", JsonValue::String(p.name));
    row.Set("count", JsonValue::Number(static_cast<double>(p.count)));
    row.Set("wall_ms_total", JsonValue::Number(p.wall_ms_total));
    row.Set("wall_ms_mean", JsonValue::Number(p.wall_ms_mean));
    row.Set("wall_ms_min", JsonValue::Number(p.wall_ms_min));
    row.Set("wall_ms_max", JsonValue::Number(p.wall_ms_max));
    row.Set("cpu_ms_total", JsonValue::Number(p.cpu_ms_total));
    row.Set("alloc_bytes_total", JsonValue::Number(static_cast<double>(p.alloc_bytes_total)));
    row.Set("rss_peak_bytes", JsonValue::Number(static_cast<double>(p.rss_peak_bytes)));
    phase_array.Append(std::move(row));
  }
  doc.Set("phases", std::move(phase_array));

  JsonValue histo_array = JsonValue::Array();
  for (const MetricsRegistry::HistogramSummary& h : histograms) {
    JsonValue row = JsonValue::Object();
    row.Set("name", JsonValue::String(h.name));
    row.Set("count", JsonValue::Number(static_cast<double>(h.count)));
    row.Set("mean", JsonValue::Number(h.mean));
    row.Set("min", JsonValue::Number(h.min));
    row.Set("max", JsonValue::Number(h.max));
    row.Set("p50", JsonValue::Number(h.p50));
    row.Set("p95", JsonValue::Number(h.p95));
    row.Set("p99", JsonValue::Number(h.p99));
    histo_array.Append(std::move(row));
  }
  doc.Set("histograms", std::move(histo_array));

  JsonValue counter_obj = JsonValue::Object();
  for (const auto& [counter_name, value] : counters) {
    counter_obj.Set(counter_name, JsonValue::Number(static_cast<double>(value)));
  }
  doc.Set("counters", std::move(counter_obj));

  JsonValue ledger_array = JsonValue::Array();
  for (const LedgerAudit& audit : ledgers) {
    JsonValue row = JsonValue::Object();
    row.Set("name", JsonValue::String(audit.name));
    row.Set("budget", JsonValue::Number(audit.budget.budget));
    row.Set("spent", JsonValue::Number(audit.budget.spent));
    row.Set("remaining", JsonValue::Number(audit.budget.remaining));
    row.Set("rejected", JsonValue::Number(static_cast<double>(audit.budget.rejected)));
    JsonValue entries = JsonValue::Array();
    for (const PrivacyLedger::Entry& entry : audit.entries) {
      JsonValue e = JsonValue::Object();
      e.Set("label", JsonValue::String(entry.label));
      e.Set("mechanism", JsonValue::String(entry.mechanism));
      e.Set("calls", JsonValue::Number(static_cast<double>(entry.calls)));
      e.Set("epsilon", JsonValue::Number(entry.total_epsilon));
      entries.Append(std::move(e));
    }
    row.Set("entries", std::move(entries));
    ledger_array.Append(std::move(row));
  }
  doc.Set("ledgers", std::move(ledger_array));

  JsonValue output_array = JsonValue::Array();
  for (const OutputDigest& out : outputs) {
    JsonValue row = JsonValue::Object();
    row.Set("name", JsonValue::String(out.name));
    row.Set("path", JsonValue::String(out.path));
    row.Set("bytes", JsonValue::Number(static_cast<double>(out.bytes)));
    row.Set("fnv1a", JsonValue::String(out.fnv1a));
    output_array.Append(std::move(row));
  }
  doc.Set("outputs", std::move(output_array));

  doc.Set("wall_seconds", JsonValue::Number(wall_seconds));
  doc.Set("cpu_seconds", JsonValue::Number(cpu_seconds));

  JsonValue flight_obj = JsonValue::Object();
  flight_obj.Set("recorded", JsonValue::Number(static_cast<double>(flight.recorded)));
  flight_obj.Set("retained", JsonValue::Number(static_cast<double>(flight.retained)));
  flight_obj.Set("dumped", JsonValue::Bool(flight.dumped));
  doc.Set("flight", std::move(flight_obj));

  if (profile.enabled) {
    JsonValue profile_obj = JsonValue::Object();
    profile_obj.Set("enabled", JsonValue::Bool(true));
    profile_obj.Set("hz", JsonValue::Number(profile.hz));
    profile_obj.Set("path", JsonValue::String(profile.path));
    profile_obj.Set("folded_path", JsonValue::String(profile.folded_path));
    profile_obj.Set("samples", JsonValue::Number(static_cast<double>(profile.samples)));
    profile_obj.Set("dropped", JsonValue::Number(static_cast<double>(profile.dropped)));
    doc.Set("profile", std::move(profile_obj));
  }

  if (!slos.empty()) {
    JsonValue slo_array = JsonValue::Array();
    for (const SloAttainment& row : slos) {
      JsonValue row_json = JsonValue::Object();
      row_json.Set("rule", JsonValue::String(row.rule));
      row_json.Set("signal", JsonValue::String(row.signal));
      if (!row.tenant.empty()) row_json.Set("tenant", JsonValue::String(row.tenant));
      row_json.Set("objective", JsonValue::Number(row.objective));
      row_json.Set("attained", JsonValue::Number(row.attained));
      row_json.Set("met", JsonValue::Bool(row.met));
      row_json.Set("events", JsonValue::Number(static_cast<double>(row.events)));
      slo_array.Append(std::move(row_json));
    }
    doc.Set("slos", std::move(slo_array));
  }
  return doc;
}

Status RunReport::WriteJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot open " + path + " for writing");
  file << ToJson().Dump() << "\n";
  if (!file.good()) return Status::Internal("write to " + path + " failed");
  return Status::Ok();
}

Status CheckDocumentHeader(
    const JsonValue& doc, const char* schema,
    std::initializer_list<std::pair<const char*, JsonValue::Kind>> required) {
  if (!doc.is_object()) {
    return Status::InvalidArgument(std::string(schema) + " document must be a JSON object");
  }
  if (doc.GetStringOr("schema", "") != schema) {
    return Status::InvalidArgument("not a " + std::string(schema) + " document (schema=\"" +
                                   doc.GetStringOr("schema", "") + "\")");
  }
  if (doc.GetNumberOr("schema_version", 0) < 1) {
    return Status::InvalidArgument("schema_version missing");
  }
  for (const auto& [key, kind] : required) {
    const JsonValue* value = doc.Find(key);
    if (value == nullptr) {
      return Status::InvalidArgument(std::string("missing key \"") + key + "\"");
    }
    if (value->kind() != kind) {
      return Status::InvalidArgument(std::string("key \"") + key + "\" has the wrong kind");
    }
  }
  return Status::Ok();
}

Result<RunReport> RunReport::FromJson(const JsonValue& doc) {
  PPDP_RETURN_IF_ERROR(CheckDocumentHeader(
      doc, SchemaTag(),
      {{"name", JsonValue::Kind::kString},     {"binary", JsonValue::Kind::kString},
       {"flags", JsonValue::Kind::kObject},    {"seed", JsonValue::Kind::kNumber},
       {"threads", JsonValue::Kind::kNumber},  {"scale", JsonValue::Kind::kNumber},
       {"build", JsonValue::Kind::kObject},    {"fault", JsonValue::Kind::kObject},
       {"phases", JsonValue::Kind::kArray},    {"histograms", JsonValue::Kind::kArray},
       {"counters", JsonValue::Kind::kObject}, {"ledgers", JsonValue::Kind::kArray},
       {"outputs", JsonValue::Kind::kArray},   {"wall_seconds", JsonValue::Kind::kNumber},
       {"cpu_seconds", JsonValue::Kind::kNumber}, {"flight", JsonValue::Kind::kObject}}));
  RunReport report;
  report.name = doc.GetStringOr("name", "");
  report.binary = doc.GetStringOr("binary", "");
  report.seed = static_cast<uint64_t>(doc.GetNumberOr("seed", 0));
  report.threads = static_cast<int>(doc.GetNumberOr("threads", 0));
  report.scale = doc.GetNumberOr("scale", 1.0);
  report.wall_seconds = doc.GetNumberOr("wall_seconds", 0.0);
  report.cpu_seconds = doc.GetNumberOr("cpu_seconds", 0.0);

  for (const auto& [key, value] : doc.Find("flags")->members()) {
    if (value.is_string()) report.flags[key] = value.as_string();
  }
  const JsonValue& build = *doc.Find("build");
  report.build.compiler = build.GetStringOr("compiler", "");
  report.build.build_type = build.GetStringOr("build_type", "");
  report.build.platform = build.GetStringOr("platform", "");
  report.build.cxx_standard = static_cast<long>(build.GetNumberOr("cxx_standard", 0));
  const JsonValue& fault = *doc.Find("fault");
  if (!fault.Has("armed") || !fault.Has("rate")) {
    return Status::InvalidArgument("fault section malformed");
  }
  report.fault.armed = fault.GetBoolOr("armed", false);
  report.fault.seed = static_cast<uint64_t>(fault.GetNumberOr("seed", 0));
  report.fault.rate = fault.GetNumberOr("rate", 0.0);
  if (const JsonValue* rates = fault.Find("point_rates"); rates && rates->is_object()) {
    for (const auto& [point, rate] : rates->members()) {
      if (rate.is_number()) report.fault.point_rates[point] = rate.as_number();
    }
  }
  const JsonValue& phases = *doc.Find("phases");
  for (size_t i = 0; i < phases.size(); ++i) {
    const JsonValue& row = phases.at(i);
    if (!row.is_object() || row.GetStringOr("name", "").empty() ||
        !row.Has("wall_ms_total") || !row.Has("cpu_ms_total") || !row.Has("count")) {
      return Status::InvalidArgument("phases[" + std::to_string(i) + "] malformed");
    }
    TraceRecorder::PhaseStats p;
    p.name = row.GetStringOr("name", "");
    p.count = static_cast<uint64_t>(row.GetNumberOr("count", 0));
    p.wall_ms_total = row.GetNumberOr("wall_ms_total", 0.0);
    p.wall_ms_mean = row.GetNumberOr("wall_ms_mean", 0.0);
    p.wall_ms_min = row.GetNumberOr("wall_ms_min", 0.0);
    p.wall_ms_max = row.GetNumberOr("wall_ms_max", 0.0);
    p.cpu_ms_total = row.GetNumberOr("cpu_ms_total", 0.0);
    p.alloc_bytes_total = static_cast<uint64_t>(row.GetNumberOr("alloc_bytes_total", 0));
    p.rss_peak_bytes = static_cast<uint64_t>(row.GetNumberOr("rss_peak_bytes", 0));
    report.phases.push_back(std::move(p));
  }
  const JsonValue& histos = *doc.Find("histograms");
  for (size_t i = 0; i < histos.size(); ++i) {
    const JsonValue& row = histos.at(i);
    if (!row.is_object()) continue;
    MetricsRegistry::HistogramSummary h;
    h.name = row.GetStringOr("name", "");
    h.count = static_cast<uint64_t>(row.GetNumberOr("count", 0));
    h.mean = row.GetNumberOr("mean", 0.0);
    h.min = row.GetNumberOr("min", 0.0);
    h.max = row.GetNumberOr("max", 0.0);
    h.p50 = row.GetNumberOr("p50", 0.0);
    h.p95 = row.GetNumberOr("p95", 0.0);
    h.p99 = row.GetNumberOr("p99", 0.0);
    report.histograms.push_back(std::move(h));
  }
  const JsonValue& outputs = *doc.Find("outputs");
  for (size_t i = 0; i < outputs.size(); ++i) {
    const JsonValue& row = outputs.at(i);
    if (!row.is_object() || row.GetStringOr("path", "").empty() ||
        row.GetStringOr("fnv1a", "").size() != 16) {
      return Status::InvalidArgument("outputs[" + std::to_string(i) + "] malformed");
    }
    OutputDigest out;
    out.name = row.GetStringOr("name", "");
    out.path = row.GetStringOr("path", "");
    out.bytes = static_cast<uint64_t>(row.GetNumberOr("bytes", 0));
    out.fnv1a = row.GetStringOr("fnv1a", "");
    report.outputs.push_back(std::move(out));
  }
  // Optional since v10 writers only (serving benches with SLO rules);
  // older reports simply have none. Present rows must be complete.
  if (const JsonValue* slos = doc.Find("slos"); slos != nullptr) {
    if (!slos->is_array()) return Status::InvalidArgument("key \"slos\" has the wrong kind");
    for (size_t i = 0; i < slos->size(); ++i) {
      const JsonValue& row = slos->at(i);
      if (!row.is_object() || row.GetStringOr("rule", "").empty() ||
          row.GetStringOr("signal", "").empty() || !row.Has("objective") ||
          !row.Has("attained") || !row.Has("met")) {
        return Status::InvalidArgument("slos[" + std::to_string(i) + "] malformed");
      }
      SloAttainment slo;
      slo.rule = row.GetStringOr("rule", "");
      slo.signal = row.GetStringOr("signal", "");
      slo.tenant = row.GetStringOr("tenant", "");
      slo.objective = row.GetNumberOr("objective", 0.0);
      slo.attained = row.GetNumberOr("attained", 0.0);
      slo.met = row.GetBoolOr("met", false);
      slo.events = static_cast<uint64_t>(row.GetNumberOr("events", 0));
      report.slos.push_back(std::move(slo));
    }
  }
  // Optional since v6 writers only; pre-v6 reports simply have none.
  if (const JsonValue* profile = doc.Find("profile"); profile && profile->is_object()) {
    report.profile.enabled = profile->GetBoolOr("enabled", false);
    report.profile.hz = static_cast<int>(profile->GetNumberOr("hz", 0));
    report.profile.path = profile->GetStringOr("path", "");
    report.profile.folded_path = profile->GetStringOr("folded_path", "");
    report.profile.samples = static_cast<uint64_t>(profile->GetNumberOr("samples", 0));
    report.profile.dropped = static_cast<uint64_t>(profile->GetNumberOr("dropped", 0));
  }
  return report;
}

Result<RunReport> RunReport::Load(const std::string& path) {
  Result<JsonValue> doc = JsonValue::Load(path);
  if (!doc.ok()) return doc.status();
  Result<RunReport> report = FromJson(*doc);
  if (!report.ok()) return report.status().Annotate(path);
  return report;
}

bool Regressed(double baseline, double current, double threshold, double floor) {
  return current > baseline * (1.0 + threshold) && current - baseline > floor;
}

ReportDiff DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& options) {
  ReportDiff diff;
  std::map<std::string, const TraceRecorder::PhaseStats*> current_by_name;
  for (const TraceRecorder::PhaseStats& p : current.phases) current_by_name[p.name] = &p;

  std::map<std::string, bool> seen;
  for (const TraceRecorder::PhaseStats& base : baseline.phases) {
    PhaseDelta delta;
    delta.name = base.name;
    delta.baseline_ms = base.wall_ms_total;
    diff.baseline_total_ms += base.wall_ms_total;
    auto it = current_by_name.find(base.name);
    if (it == current_by_name.end()) {
      delta.only_in_baseline = true;
    } else {
      seen[base.name] = true;
      delta.current_ms = it->second->wall_ms_total;
      diff.current_total_ms += delta.current_ms;
      delta.ratio = base.wall_ms_total > 0.0 ? delta.current_ms / base.wall_ms_total : 0.0;
      delta.regressed =
          Regressed(base.wall_ms_total, delta.current_ms, options.threshold, options.min_ms);
      delta.baseline_rss_peak = base.rss_peak_bytes;
      delta.current_rss_peak = it->second->rss_peak_bytes;
      // The memory gate is opt-in and only meaningful when both sides carry
      // numbers (pre-v6 baselines report 0).
      if (options.mem_threshold > 0.0 && delta.baseline_rss_peak > 0 &&
          delta.current_rss_peak > 0) {
        delta.mem_regressed = Regressed(delta.baseline_rss_peak, delta.current_rss_peak,
                                        options.mem_threshold, options.min_mem_bytes);
      }
    }
    diff.regressed = diff.regressed || delta.regressed || delta.mem_regressed;
    diff.phases.push_back(std::move(delta));
  }
  for (const TraceRecorder::PhaseStats& cur : current.phases) {
    if (seen.count(cur.name)) continue;
    PhaseDelta delta;
    delta.name = cur.name;
    delta.current_ms = cur.wall_ms_total;
    diff.current_total_ms += cur.wall_ms_total;
    delta.only_in_current = true;
    diff.phases.push_back(std::move(delta));
  }

  std::map<std::string, const RunReport::OutputDigest*> current_outputs;
  for (const RunReport::OutputDigest& out : current.outputs) current_outputs[out.name] = &out;
  for (const RunReport::OutputDigest& base : baseline.outputs) {
    auto it = current_outputs.find(base.name);
    if (it != current_outputs.end() && !base.fnv1a.empty() &&
        base.fnv1a != it->second->fnv1a) {
      diff.digest_mismatches.push_back(base.name);
    }
  }
  if (options.check_digests && !diff.digest_mismatches.empty()) diff.regressed = true;
  return diff;
}

Table ReportDiff::Summary() const {
  Table table({"phase", "baseline ms", "current ms", "ratio", "verdict"});
  for (const PhaseDelta& delta : phases) {
    std::string verdict = delta.only_in_baseline ? "missing"
                          : delta.only_in_current ? "new"
                          : delta.regressed       ? "REGRESSED"
                          : delta.mem_regressed   ? "MEM REGRESSED"
                                                  : "ok";
    table.AddRow({delta.name,
                  delta.only_in_current ? "-" : Table::FormatDouble(delta.baseline_ms, 3),
                  delta.only_in_baseline ? "-" : Table::FormatDouble(delta.current_ms, 3),
                  delta.only_in_baseline || delta.only_in_current
                      ? "-"
                      : Table::FormatDouble(delta.ratio, 3),
                  verdict});
  }
  table.AddRow({"TOTAL", Table::FormatDouble(baseline_total_ms, 3),
                Table::FormatDouble(current_total_ms, 3),
                baseline_total_ms > 0.0
                    ? Table::FormatDouble(current_total_ms / baseline_total_ms, 3)
                    : "-",
                regressed ? "REGRESSED" : "ok"});
  return table;
}

}  // namespace ppdp::obs
