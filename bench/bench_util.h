#ifndef PPDP_BENCH_BENCH_UTIL_H_
#define PPDP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "common/table.h"
#include "exec/exec_config.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"

namespace ppdp::bench {

/// The per-phase table every bench prints at exit: one row per span name
/// in the global TraceRecorder, by descending wall total.
inline Table PhaseTable() {
  Table table({"phase", "count", "total ms", "mean ms", "min ms", "max ms", "cpu ms",
               "alloc MB"});
  for (const obs::TraceRecorder::PhaseStats& s : obs::TraceRecorder::Global().PhaseStatsSorted()) {
    table.AddRow({s.name, std::to_string(s.count), Table::FormatDouble(s.wall_ms_total, 3),
                  Table::FormatDouble(s.wall_ms_mean, 3), Table::FormatDouble(s.wall_ms_min, 3),
                  Table::FormatDouble(s.wall_ms_max, 3),
                  Table::FormatDouble(s.cpu_ms_total, 3),
                  Table::FormatDouble(static_cast<double>(s.alloc_bytes_total) / (1 << 20), 2)});
  }
  return table;
}

/// Writes the global TraceRecorder's retained events as Chrome trace_event
/// JSON ("X" complete events; load via chrome://tracing or
/// https://ui.perfetto.dev).
inline Status WriteChromeTrace(const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot open " + path + " for writing");
  std::vector<obs::TraceEvent> snapshot = obs::TraceRecorder::Global().events();
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const obs::TraceEvent& e = snapshot[i];
    if (i) file << ",";
    file << "\n{\"name\":\"";
    for (char c : obs::SpanNameForId(e.span)) {
      if (c == '"' || c == '\\') file << '\\';
      file << c;
    }
    file << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.thread << ",\"ts\":"
         << Table::FormatDouble(e.start_us, 3) << ",\"dur\":"
         << Table::FormatDouble(e.duration_us, 3) << "}";
  }
  file << "\n]}\n";
  if (!file.good()) return Status::Internal("write to " + path + " failed");
  return Status::Ok();
}

/// Common knobs of the reproduction benches. Every bench accepts
///   --seed N        (default 7)    generator / mask seed
///   --scale X       (default per bench)  dataset scale factor
///   --out DIR       (default "bench_out")  CSV output directory
///   --log_level L   (default warn)  debug|info|warn|error|off
///   --log_json      (off by default)  one JSON object per log record
///   --trace_out F   (off by default)  write the first 2^18 spans as Chrome JSON
///   --threads N     (default 0)    execution width: 0 = hardware
///                   concurrency, 1 = exact serial fallback
///   --report_out F  (default <out>/BENCH_<name>.json; "off" disables)
///                   machine-readable run report for `ppdp_stat report`
///   --flight_capacity N  (default 512)  flight-recorder ring size
///   --flight_level L     (default warn) min log level the recorder keeps
///   --flight_dump F      (default <out>/<bench>_flight.json; "off"
///                   disables)  where crash/fatal-status dumps go
///   --telemetry_port P   (off unless given)  start the live introspection
///                   HTTP server on 127.0.0.1:P; 0 picks an ephemeral port.
///                   The resolved URL is printed at startup. Without this
///                   flag no socket is opened and nothing is paid.
///   --http_max_conns N   (default 8)  telemetry server connection cap;
///                   connections beyond it get an immediate 503 (counted
///                   by telemetry.rejected_connections)
///   --profile_hz N  (default 0 = off)  sampling-profiler rate in samples
///                   per second of per-thread CPU time; prime rates (97,
///                   211) avoid lock-step with periodic work. Off pays
///                   nothing — no timers, no buffers, no handler.
///   --profile_out F (default <out>/PROFILE_<name>.json)  where the
///                   ppdp.profile.v1 JSON goes when --profile_hz > 0; the
///                   collapsed folded stacks land next to it with a
///                   .folded suffix
///
/// A bench passes the names of the flags it reads itself. Any other flag is
/// a usage error: the constructor names it and exits 2 before any work.
///
/// On destruction (end of main) the harness prints the per-phase table of
/// every TraceSpan closed, then writes, with --trace_out, the Chrome trace, and
/// the BENCH_<name>.json run report (invocation, build, fault plan, phase
/// timings, histogram percentiles, ledger audits, and FNV-1a digests of
/// every CSV written through Emit).
struct BenchEnv {
  uint64_t seed = 7;
  double scale = 1.0;
  std::string out_dir = "bench_out";
  std::string bench_name = "bench";
  std::string trace_out;
  int threads = 0;

  BenchEnv(int argc, char** argv, double default_scale,
           std::initializer_list<std::string_view> bench_flags = {}) {
    if (argc > 0) {
      bench_name = std::filesystem::path(argv[0]).filename().string();
    }
    Flags flags(argc, argv);
    std::vector<std::string_view> known(std::begin(kCommonFlags), std::end(kCommonFlags));
    known.insert(known.end(), bench_flags.begin(), bench_flags.end());
    flags.RejectUnknown(bench_name, known);
    flag_values_ = flags.values();
    seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
    scale = flags.GetDouble("scale", default_scale);
    out_dir = flags.GetString("out", "bench_out");
    trace_out = flags.GetString("trace_out", "");
    if (!trace_out.empty()) obs::TraceRecorder::Global().SetRetainEvents(true);
    threads = static_cast<int>(flags.GetInt("threads", 0));
    Status pool_status = exec::ThreadPool::SetGlobalThreads(threads);
    if (!pool_status.ok()) {
      std::cerr << "warning: --threads rejected: " << pool_status.ToString()
                << "; falling back to hardware concurrency\n";
      threads = 0;
    }
    if (!obs::InitLoggingFromFlags(flags)) {
      std::cerr << "warning: unknown --log_level '" << flags.GetString("log_level", "")
                << "' ignored (want debug|info|warn|error|off)\n";
    }
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "warning: cannot create output directory '" << out_dir
                << "': " << ec.message() << " (error " << ec.value() << "); CSVs will fail\n";
    }

    report_out_ = flags.GetString("report_out", "");
    if (report_out_.empty()) {
      report_out_ = out_dir + "/BENCH_" + ShortName() + ".json";
    }

    obs::LogLevel flight_level = obs::LogLevel::kWarn;
    std::string flight_level_text = flags.GetString("flight_level", "warn");
    if (!obs::ParseLogLevel(flight_level_text, &flight_level)) {
      std::cerr << "warning: unknown --flight_level '" << flight_level_text
                << "' ignored (want debug|info|warn|error|off)\n";
    }
    size_t flight_capacity = static_cast<size_t>(
        flags.GetInt("flight_capacity", static_cast<int64_t>(obs::FlightRecorder::kDefaultCapacity)));
    obs::FlightRecorder::Global().Configure(
        flight_capacity > 0 ? flight_capacity : obs::FlightRecorder::kDefaultCapacity,
        flight_level);
    std::string flight_dump =
        flags.GetString("flight_dump", out_dir + "/" + bench_name + "_flight.json");
    if (flight_dump != "off") {
      obs::FlightRecorder::Global().SetDumpPath(flight_dump);
      obs::FlightRecorder::InstallSignalDump();
    }

    if (flags.Has("telemetry_port")) {
      obs::TelemetryServer::Options telemetry_options;
      telemetry_options.port = static_cast<int>(flags.GetInt("telemetry_port", 0));
      telemetry_options.max_connections =
          static_cast<int>(flags.GetInt("http_max_conns", telemetry_options.max_connections));
      telemetry_options.flags = flag_values_;
      telemetry_options.seed = seed;
      telemetry_options.threads = threads;
      telemetry_ = std::make_unique<obs::TelemetryServer>(telemetry_options);
      Status telemetry_status = telemetry_->Start();
      if (telemetry_status.ok()) {
        // Flushed immediately so a supervising process (the CI smoke job)
        // can grep the resolved ephemeral port while the bench runs.
        std::cout << "(telemetry: http://127.0.0.1:" << telemetry_->port() << "/)" << std::endl;
      } else {
        std::cerr << "warning: telemetry server not started: " << telemetry_status.ToString()
                  << "\n";
        telemetry_.reset();
      }
    }

    profile_hz_ = static_cast<int>(flags.GetInt("profile_hz", 0));
    if (profile_hz_ > 0) {
      profile_out_ = flags.GetString("profile_out", out_dir + "/PROFILE_" + ShortName() + ".json");
      obs::Profiler::Options profiler_options;
      profiler_options.hz = profile_hz_;
      Status profiler_status = obs::Profiler::Global().Start(profiler_options);
      if (!profiler_status.ok()) {
        std::cerr << "warning: profiler not started: " << profiler_status.ToString() << "\n";
        profile_hz_ = 0;
      }
    }
  }

  BenchEnv(const BenchEnv&) = delete;
  BenchEnv& operator=(const BenchEnv&) = delete;

  ~BenchEnv() {
    if (profile_hz_ > 0) EmitProfile();
    if (Table phases = PhaseTable(); phases.num_rows() > 0) {
      std::cout << "== per-phase timing (" << bench_name << ") ==\n";
      phases.Print(std::cout);
      std::cout << "\n";
    }
    if (!trace_out.empty()) {
      Status status = WriteChromeTrace(trace_out);
      if (status.ok()) {
        std::cout << "(trace: " << trace_out << ")\n";
      } else {
        std::cout << "(trace write failed: " << status.ToString() << ")\n";
      }
      if (size_t dropped = obs::TraceRecorder::Global().num_dropped(); dropped > 0) {
        std::cout << "(trace: " << dropped << " more spans past the 2^18-event cap not written)\n";
      }
    }
    if (report_out_ != "off") EmitRunReport();
    if (telemetry_ != nullptr) telemetry_->Stop();  // after reports: scrapable to the end
  }

  /// Short report name: the binary name minus its "bench_" prefix
  /// ("bench_iot" -> "iot"), the <name> of BENCH_<name>.json.
  std::string ShortName() const {
    constexpr const char* kPrefix = "bench_";
    if (bench_name.rfind(kPrefix, 0) == 0) return bench_name.substr(6);
    return bench_name;
  }

  /// Prints `table` under a heading and writes it to <out>/<name>.csv.
  /// The CSV is digested into the run report at exit.
  void Emit(const Table& table, const std::string& name, const std::string& heading) const {
    std::cout << "== " << heading << " ==\n";
    table.Print(std::cout);
    std::string path = out_dir + "/" + name + ".csv";
    Status status = table.WriteCsv(path);
    if (!status.ok()) {
      std::cout << "(csv write failed: " << status.ToString() << ")\n\n";
      return;
    }
    std::cout << "(csv: " << path << ")\n\n";
    RecordOutput(name, path);
  }

  /// Prints a privacy-ledger audit table, persists it as <out>/<name>.csv,
  /// and captures the full audit trail into the run report.
  void EmitLedger(const obs::PrivacyLedger& ledger, const std::string& name) const {
    obs::PrivacyLedger::BudgetSnapshot budget = ledger.snapshot();
    Emit(ledger.Summary(), name,
         "privacy ledger (budget " + Table::FormatDouble(budget.budget, 4) + ", spent " +
             Table::FormatDouble(budget.spent, 4) + ")");
    ledgers_.push_back({name, budget, ledger.entries()});
  }

  /// Captures SLO-attainment rows (bench_serve queries its in-process
  /// SloEngine after the load completes) into the run report's optional
  /// "slos" stanza. Repeated calls append; benches that never call this
  /// emit byte-identical reports to pre-v10 writers.
  void RecordSloAttainment(const std::vector<obs::SloAttainment>& rows) const {
    slos_.insert(slos_.end(), rows.begin(), rows.end());
  }

  /// Captures the fault plan a bench armed (ScopedFaultPlan installs go out
  /// of scope before the report is written, so the harness cannot observe
  /// them at exit). Last recorded plan wins; chaos sweeps typically record
  /// the env-derived plan once.
  void RecordFaultPlan(const fault::FaultPlan& plan) const {
    fault_.armed = true;
    fault_.seed = plan.seed;
    fault_.rate = plan.rate;
    fault_.point_rates = plan.point_rates;
  }

  /// Times `workload` once at --threads 1 (exact serial fallback) and once
  /// at the resolved --threads width, and emits a serial/parallel/speedup
  /// table as <out>/<name>_speedup.csv. `workload` receives the execution
  /// width to use and must produce identical results at every width (the
  /// determinism contract of exec::ParallelFor), so the two runs are
  /// directly comparable. Skipped when only one hardware thread is
  /// available or the user pinned --threads 1, since the two runs would
  /// measure the same configuration.
  void EmitSpeedup(const std::function<void(int threads)>& workload,
                   const std::string& name, const std::string& heading) const {
    const int parallel_width = static_cast<int>(exec::ExecConfig{threads}.ResolvedThreads());
    if (parallel_width <= 1) {
      std::cout << "== " << heading << " ==\n"
                << "(speedup table skipped: execution width resolves to 1 thread)\n\n";
      return;
    }
    auto timed = [&](int width) {
      auto start = std::chrono::steady_clock::now();
      workload(width);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    };
    const double serial_seconds = timed(1);
    const double parallel_seconds = timed(parallel_width);
    Table table({"threads", "serial s", "parallel s", "speedup"});
    table.AddRow({std::to_string(parallel_width), Table::FormatDouble(serial_seconds, 4),
                  Table::FormatDouble(parallel_seconds, 4),
                  Table::FormatDouble(
                      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0, 2)});
    Emit(table, name + "_speedup", heading);
  }

  /// Stops the sampling profiler and writes the ppdp.profile.v1 JSON plus
  /// the folded-stack text. Called automatically at destruction when
  /// --profile_hz > 0; the run report then links both files.
  void EmitProfile() const {
    obs::Profiler& profiler = obs::Profiler::Global();
    profiler.Stop();
    obs::CpuProfile profile = profiler.Collect(ShortName());
    std::string folded_path = profile_out_;
    constexpr std::string_view kJsonSuffix = ".json";
    if (folded_path.size() > kJsonSuffix.size() &&
        folded_path.compare(folded_path.size() - kJsonSuffix.size(), kJsonSuffix.size(),
                            kJsonSuffix) == 0) {
      folded_path.resize(folded_path.size() - kJsonSuffix.size());
    }
    folded_path += ".folded";
    Status json_status = profile.WriteJson(profile_out_);
    Status folded_status = profile.WriteFolded(folded_path);
    if (json_status.ok() && folded_status.ok()) {
      std::cout << "(profile: " << profile_out_ << ", " << profile.samples << " samples @ "
                << profile_hz_ << " Hz across " << profile.threads_profiled << " threads; folded: "
                << folded_path << ")\n";
    } else {
      std::cout << "(profile write failed: "
                << (json_status.ok() ? folded_status : json_status).ToString() << ")\n";
    }
    profile_info_.enabled = true;
    profile_info_.hz = profile_hz_;
    profile_info_.path = profile_out_;
    profile_info_.folded_path = folded_path;
    profile_info_.samples = profile.samples;
    profile_info_.dropped = profile.dropped;
  }

  /// Writes the BENCH_<name>.json run report. Called automatically at
  /// destruction (unless --report_out off); exposed for tests.
  void EmitRunReport() const {
    obs::RunReport report;
    report.name = ShortName();
    report.binary = bench_name;
    report.flags = flag_values_;
    report.seed = seed;
    report.threads = threads;
    report.scale = scale;
    obs::CollectGlobalTelemetry(&report);
    report.fault = fault_;
    if (!report.fault.armed && fault::FaultInjector::Global().armed()) {
      fault::FaultPlan plan = fault::FaultInjector::Global().plan();
      report.fault.armed = true;
      report.fault.seed = plan.seed;
      report.fault.rate = plan.rate;
      report.fault.point_rates = plan.point_rates;
    }
    report.profile = profile_info_;
    report.ledgers = ledgers_;
    report.slos = slos_;
    for (const auto& [name, path] : outputs_) {
      obs::RunReport::OutputDigest digest;
      digest.name = name;
      digest.path = path;
      std::error_code ec;
      uintmax_t bytes = std::filesystem::file_size(path, ec);
      digest.bytes = ec ? 0 : static_cast<uint64_t>(bytes);
      Result<uint64_t> hash = obs::FileDigestFnv1a(path);
      digest.fnv1a = hash.ok() ? obs::DigestToHex(*hash) : std::string();
      report.outputs.push_back(std::move(digest));
    }
    Status status = report.WriteJson(report_out_);
    if (status.ok()) {
      std::cout << "(report: " << report_out_ << ")\n";
    } else {
      std::cout << "(report write failed: " << status.ToString() << ")\n";
    }
  }

 private:
  /// The flags every bench reads through BenchEnv (log_json through
  /// obs::InitLoggingFromFlags).
  static constexpr std::string_view kCommonFlags[] = {
      "seed",         "scale",        "out",          "log_level",       "log_json",
      "trace_out",    "threads",      "report_out",   "flight_capacity", "flight_level",
      "flight_dump",  "telemetry_port", "http_max_conns", "profile_hz",  "profile_out"};

  /// Remembers a CSV written through Emit, replacing an earlier write of
  /// the same table name (benches may re-emit).
  void RecordOutput(const std::string& name, const std::string& path) const {
    for (auto& entry : outputs_) {
      if (entry.first == name) {
        entry.second = path;
        return;
      }
    }
    outputs_.emplace_back(name, path);
  }

  std::map<std::string, std::string> flag_values_;
  std::string report_out_;
  int profile_hz_ = 0;
  std::string profile_out_;
  // The bench's main thread participates in parallel regions and runs the
  // serial phases; register it for the profiler's whole-process view (free
  // when no capture runs, including the --profile_hz=0 default).
  obs::ProfiledThreadScope profiled_main_thread_;
  mutable obs::RunReport::ProfileInfo profile_info_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
  // Emit/EmitLedger are const (benches hold const refs in helpers); the
  // report bookkeeping they feed is observational state, hence mutable.
  mutable std::vector<std::pair<std::string, std::string>> outputs_;
  mutable std::vector<obs::RunReport::LedgerAudit> ledgers_;
  mutable std::vector<obs::SloAttainment> slos_;
  mutable obs::RunReport::FaultInfo fault_;
};

}  // namespace ppdp::bench

#endif  // PPDP_BENCH_BENCH_UTIL_H_
