#include "obs/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace ppdp::obs {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

/// A fully populated report exercising every section the schema requires.
RunReport MakeReport() {
  RunReport report;
  report.name = "iot";
  report.binary = "bench_iot";
  report.flags = {{"seed", "7"}, {"scale", "1"}, {"threads", "4"}};
  report.seed = 7;
  report.threads = 4;
  report.scale = 1.0;
  report.build = CurrentBuildInfo();

  report.fault.armed = true;
  report.fault.seed = 99;
  report.fault.rate = 0.05;
  report.fault.point_rates = {{"iot.send", 0.1}, {"dp.spend", 0.02}};

  TraceRecorder::PhaseStats phase;
  phase.name = "iot.collect";
  phase.count = 3;
  phase.wall_ms_total = 120.0;
  phase.wall_ms_mean = 40.0;
  phase.wall_ms_min = 35.0;
  phase.wall_ms_max = 45.0;
  phase.cpu_ms_total = 110.0;
  report.phases.push_back(phase);
  phase.name = "iot.estimate";
  phase.wall_ms_total = 30.0;
  report.phases.push_back(phase);

  MetricsRegistry::HistogramSummary histo;
  histo.name = "channel.send_ms";
  histo.count = 100;
  histo.mean = 2.0;
  histo.min = 1.0;
  histo.max = 9.0;
  histo.p50 = 1.8;
  histo.p95 = 6.0;
  histo.p99 = 8.5;
  report.histograms.push_back(histo);
  report.counters = {{"fault.fired", 12}, {"channel.retries", 4}};

  RunReport::LedgerAudit audit;
  audit.name = "iot_ledger";
  audit.budget = {2.0, 1.5, 0.5, 1};
  PrivacyLedger::Entry entry;
  entry.label = "activity";
  entry.mechanism = "randomized_response";
  entry.calls = 50;
  entry.total_epsilon = 1.5;
  audit.entries.push_back(entry);
  report.ledgers.push_back(audit);

  RunReport::OutputDigest digest;
  digest.name = "iot_quality";
  digest.path = "bench_out/iot_quality.csv";
  digest.bytes = 1234;
  digest.fnv1a = "0123456789abcdef";
  report.outputs.push_back(digest);

  report.wall_seconds = 1.25;
  report.cpu_seconds = 4.5;
  report.flight.recorded = 17;
  report.flight.retained = 17;
  return report;
}

TEST(RunReportTest, EmittedJsonPassesSchemaValidation) {
  JsonValue doc = MakeReport().ToJson();
  Result<RunReport> valid = RunReport::FromJson(doc);
  EXPECT_TRUE(valid.ok()) << valid.status().ToString();
}

TEST(RunReportTest, WriteLoadRoundTripPreservesEverythingBenchstatReads) {
  RunReport report = MakeReport();
  std::string path = TempPath("report_roundtrip.json");
  ASSERT_TRUE(report.WriteJson(path).ok());

  Result<RunReport> loaded = RunReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "iot");
  EXPECT_EQ(loaded->binary, "bench_iot");
  EXPECT_EQ(loaded->seed, 7u);
  EXPECT_EQ(loaded->threads, 4);
  EXPECT_EQ(loaded->flags.at("scale"), "1");
  EXPECT_EQ(loaded->build.build_type, report.build.build_type);
  EXPECT_TRUE(loaded->fault.armed);
  EXPECT_DOUBLE_EQ(loaded->fault.point_rates.at("iot.send"), 0.1);
  ASSERT_EQ(loaded->phases.size(), 2u);
  EXPECT_EQ(loaded->phases[0].name, "iot.collect");
  EXPECT_DOUBLE_EQ(loaded->phases[0].wall_ms_total, 120.0);
  EXPECT_DOUBLE_EQ(loaded->phases[0].cpu_ms_total, 110.0);
  ASSERT_EQ(loaded->histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded->histograms[0].p99, 8.5);
  ASSERT_EQ(loaded->outputs.size(), 1u);
  EXPECT_EQ(loaded->outputs[0].fnv1a, "0123456789abcdef");
  EXPECT_EQ(loaded->outputs[0].bytes, 1234u);
}

TEST(RunReportTest, LoadRejectsWrongSchemaTag) {
  std::string path = TempPath("report_wrong_schema.json");
  {
    std::ofstream out(path);
    out << R"({"schema":"something.else","name":"x"})";
  }
  Result<RunReport> loaded = RunReport::Load(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(RunReportTest, ValidationCatchesMissingAndMalformedSections) {
  JsonValue doc = MakeReport().ToJson();
  JsonValue no_phases = JsonValue::Parse(doc.Dump()).value();
  no_phases.Set("phases", JsonValue::Number(3));
  EXPECT_FALSE(RunReport::FromJson(no_phases).ok()) << "wrong kind for phases must fail";

  JsonValue bad_digest = JsonValue::Parse(doc.Dump()).value();
  JsonValue outputs = JsonValue::Array();
  JsonValue row = JsonValue::Object();
  row.Set("name", JsonValue::String("t"));
  row.Set("path", JsonValue::String("t.csv"));
  row.Set("fnv1a", JsonValue::String("short"));
  outputs.Append(std::move(row));
  bad_digest.Set("outputs", std::move(outputs));
  EXPECT_FALSE(RunReport::FromJson(bad_digest).ok()) << "non-16-hex digest must fail";

  EXPECT_FALSE(RunReport::FromJson(JsonValue::Number(1)).ok());
}

TEST(RunReportTest, CollectGlobalTelemetryPicksUpSpansAndHistograms) {
  TraceRecorder::Global().Clear();
  MetricsRegistry::Global().Reset();
  { TraceSpan span(PPDP_SPAN_SITE("report_test.phase")); }
  MetricsRegistry::Global().histogram("report_test.ms", {1.0, 10.0}).Observe(2.0);

  RunReport report;
  CollectGlobalTelemetry(&report);
  bool saw_phase = false;
  for (const auto& p : report.phases) saw_phase = saw_phase || p.name == "report_test.phase";
  EXPECT_TRUE(saw_phase);
  bool saw_histo = false;
  for (const auto& h : report.histograms) saw_histo = saw_histo || h.name == "report_test.ms";
  EXPECT_TRUE(saw_histo);
  EXPECT_FALSE(report.build.compiler.empty());
  EXPECT_GT(report.wall_seconds, 0.0);
  TraceRecorder::Global().Clear();
  MetricsRegistry::Global().Reset();
}

TEST(FileDigestTest, Fnv1aMatchesKnownVectorsAndDetectsChanges) {
  std::string path = TempPath("digest_probe.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "a";
  }
  Result<uint64_t> digest = FileDigestFnv1a(path);
  ASSERT_TRUE(digest.ok());
  // FNV-1a 64-bit of "a" is a canonical published vector.
  EXPECT_EQ(*digest, 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(DigestToHex(*digest), "af63dc4c8601ec8c");

  {
    std::ofstream out(path, std::ios::binary);
    out << "b";
  }
  Result<uint64_t> changed = FileDigestFnv1a(path);
  ASSERT_TRUE(changed.ok());
  EXPECT_NE(*changed, *digest);

  EXPECT_FALSE(FileDigestFnv1a(TempPath("no_such_file.bin")).ok());
}

TEST(FileDigestTest, EmptyFileDigestsToOffsetBasis) {
  std::string path = TempPath("digest_empty.bin");
  { std::ofstream out(path, std::ios::binary); }
  Result<uint64_t> digest = FileDigestFnv1a(path);
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(*digest, 0xCBF29CE484222325ULL);
}

/// Two-phase baseline helper for the diff tests.
RunReport TimingReport(double phase_a_ms, double phase_b_ms) {
  RunReport report;
  report.name = "gate";
  TraceRecorder::PhaseStats a;
  a.name = "a";
  a.count = 1;
  a.wall_ms_total = phase_a_ms;
  report.phases.push_back(a);
  TraceRecorder::PhaseStats b;
  b.name = "b";
  b.count = 1;
  b.wall_ms_total = phase_b_ms;
  report.phases.push_back(b);
  return report;
}

TEST(DiffReportsTest, WithinThresholdIsNotARegression) {
  DiffOptions options;  // +25%, 5 ms floor
  ReportDiff diff = DiffReports(TimingReport(100.0, 50.0), TimingReport(110.0, 55.0), options);
  EXPECT_FALSE(diff.regressed);
  ASSERT_EQ(diff.phases.size(), 2u);
  EXPECT_FALSE(diff.phases[0].regressed);
  EXPECT_NEAR(diff.phases[0].ratio, 1.1, 1e-9);
}

TEST(DiffReportsTest, SlowdownBeyondThresholdAndFloorRegresses) {
  DiffOptions options;
  ReportDiff diff = DiffReports(TimingReport(100.0, 50.0), TimingReport(140.0, 50.0), options);
  EXPECT_TRUE(diff.regressed);
  EXPECT_TRUE(diff.phases[0].regressed) << "phase a slowed 40% and 40 ms";
  EXPECT_FALSE(diff.phases[1].regressed);
}

TEST(DiffReportsTest, SubNoisePhasesNeverRegressOnRatioAlone) {
  DiffOptions options;  // 5 ms absolute floor
  // 1 ms -> 3 ms triples but moves only 2 ms: below the floor, not a regression.
  ReportDiff diff = DiffReports(TimingReport(1.0, 50.0), TimingReport(3.0, 50.0), options);
  EXPECT_FALSE(diff.regressed);
}

TEST(DiffReportsTest, AddedAndRemovedPhasesAreReportedButNeverRegress) {
  RunReport baseline = TimingReport(100.0, 50.0);
  RunReport current = TimingReport(100.0, 50.0);
  current.phases[1].name = "c";  // "b" vanished, "c" appeared
  ReportDiff diff = DiffReports(baseline, current, DiffOptions{});
  EXPECT_FALSE(diff.regressed);
  ASSERT_EQ(diff.phases.size(), 3u);
  EXPECT_TRUE(diff.phases[1].only_in_baseline);
  EXPECT_TRUE(diff.phases[2].only_in_current);
  Table summary = diff.Summary();
  EXPECT_EQ(summary.num_rows(), 4u) << "three phases plus the TOTAL row";
}

TEST(DiffReportsTest, DigestMismatchRegressesOnlyWhenChecked) {
  RunReport baseline = TimingReport(100.0, 50.0);
  RunReport current = TimingReport(100.0, 50.0);
  RunReport::OutputDigest digest;
  digest.name = "table";
  digest.path = "t.csv";
  digest.fnv1a = "aaaaaaaaaaaaaaaa";
  baseline.outputs.push_back(digest);
  digest.fnv1a = "bbbbbbbbbbbbbbbb";
  current.outputs.push_back(digest);

  ReportDiff lenient = DiffReports(baseline, current, DiffOptions{});
  ASSERT_EQ(lenient.digest_mismatches.size(), 1u);
  EXPECT_EQ(lenient.digest_mismatches[0], "table");
  EXPECT_FALSE(lenient.regressed) << "digest checking is opt-in";

  DiffOptions strict;
  strict.check_digests = true;
  EXPECT_TRUE(DiffReports(baseline, current, strict).regressed);
}

TEST(RunReportTest, PhaseMemoryAndProfileLinkSurviveTheRoundTrip) {
  RunReport report = MakeReport();
  report.phases[0].alloc_bytes_total = 48ull << 20;
  report.phases[0].rss_peak_bytes = 512ull << 20;
  report.profile.enabled = true;
  report.profile.hz = 97;
  report.profile.path = "bench_out/PROFILE_iot.json";
  report.profile.folded_path = "bench_out/PROFILE_iot.folded";
  report.profile.samples = 4242;
  report.profile.dropped = 3;

  std::string path = TempPath("report_mem_roundtrip.json");
  ASSERT_TRUE(report.WriteJson(path).ok());
  Result<RunReport> loaded = RunReport::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->phases[0].alloc_bytes_total, 48ull << 20);
  EXPECT_EQ(loaded->phases[0].rss_peak_bytes, 512ull << 20);
  EXPECT_TRUE(loaded->profile.enabled);
  EXPECT_EQ(loaded->profile.hz, 97);
  EXPECT_EQ(loaded->profile.path, "bench_out/PROFILE_iot.json");
  EXPECT_EQ(loaded->profile.folded_path, "bench_out/PROFILE_iot.folded");
  EXPECT_EQ(loaded->profile.samples, 4242u);
  EXPECT_EQ(loaded->profile.dropped, 3u);
  // Emitted JSON still passes the schema gate with the new sections.
  EXPECT_TRUE(RunReport::FromJson(report.ToJson()).ok());
}

TEST(RunReportTest, ProfileSectionIsOmittedWhenProfilingWasOff) {
  // Pre-v6 readers (and diff tooling) must not see a bogus profile stanza
  // on unprofiled runs, and pre-v6 reports load with the fields zeroed.
  RunReport report = MakeReport();
  EXPECT_FALSE(report.ToJson().Has("profile"));
  std::string path = TempPath("report_no_profile.json");
  ASSERT_TRUE(report.WriteJson(path).ok());
  Result<RunReport> loaded = RunReport::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->profile.enabled);
  EXPECT_EQ(loaded->phases[0].alloc_bytes_total, 0u);
}

/// Injects `bloat_mb` of per-phase peak RSS on top of TimingReport.
RunReport MemoryReport(double phase_ms, uint64_t a_mb, uint64_t b_mb) {
  RunReport report = TimingReport(phase_ms, phase_ms);
  report.phases[0].rss_peak_bytes = a_mb << 20;
  report.phases[1].rss_peak_bytes = b_mb << 20;
  return report;
}

TEST(DiffReportsTest, MemoryGateIsOffByDefault) {
  // 100 MB -> 400 MB of injected bloat: invisible until --mem_threshold.
  ReportDiff diff =
      DiffReports(MemoryReport(50.0, 100, 100), MemoryReport(50.0, 400, 100), DiffOptions{});
  EXPECT_FALSE(diff.regressed);
}

TEST(DiffReportsTest, InjectedBloatBeyondMemThresholdRegresses) {
  DiffOptions options;
  options.mem_threshold = 0.5;  // +50%
  ReportDiff diff =
      DiffReports(MemoryReport(50.0, 100, 100), MemoryReport(50.0, 400, 100), options);
  EXPECT_TRUE(diff.regressed);
  ASSERT_EQ(diff.phases.size(), 2u);
  EXPECT_TRUE(diff.phases[0].mem_regressed) << "phase a quadrupled its peak RSS";
  EXPECT_FALSE(diff.phases[0].regressed) << "timing itself did not move";
  EXPECT_FALSE(diff.phases[1].mem_regressed);
  EXPECT_EQ(diff.phases[0].baseline_rss_peak, 100ull << 20);
  EXPECT_EQ(diff.phases[0].current_rss_peak, 400ull << 20);
}

TEST(DiffReportsTest, MemoryGateRespectsAbsoluteFloorAndMissingData) {
  DiffOptions options;
  options.mem_threshold = 0.5;
  // Tripling 4 MB moves only 8 MB — under the 16 MB floor, not a regression.
  EXPECT_FALSE(
      DiffReports(MemoryReport(50.0, 4, 4), MemoryReport(50.0, 12, 4), options).regressed);
  // A pre-v6 baseline carries no memory numbers: the gate must stay quiet
  // rather than flag every phase as infinitely grown.
  EXPECT_FALSE(
      DiffReports(MemoryReport(50.0, 0, 0), MemoryReport(50.0, 400, 100), options).regressed);
}

TEST(DiffReportsTest, FasterRunsPassTheGate) {
  ReportDiff diff = DiffReports(TimingReport(100.0, 50.0), TimingReport(60.0, 20.0), DiffOptions{});
  EXPECT_FALSE(diff.regressed);
  EXPECT_DOUBLE_EQ(diff.baseline_total_ms, 150.0);
  EXPECT_DOUBLE_EQ(diff.current_total_ms, 80.0);
}

}  // namespace
}  // namespace ppdp::obs
