// End-to-end tests of the ppdp_stat binary: every subcommand's exit-code
// contract (0 ok, 1 gate tripped, 2 usage/IO/schema error) on small
// fixtures written by the test or taken from bench_out/baseline/.
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "serve/request_trace.h"

namespace ppdp {
namespace {

const std::string kBaseline = std::string(PPDP_SOURCE_DIR) + "/bench_out/baseline/";

struct StatRun {
  int code = -1;
  std::string out;  ///< stdout only; stderr is discarded
};

/// Runs `ppdp_stat <args>` through the shell and captures its stdout.
StatRun Stat(const std::string& args) {
  const std::string command = std::string(PPDP_STAT_BIN) + " " + args + " 2>/dev/null";
  StatRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  for (size_t n; (n = fread(buffer, 1, sizeof(buffer), pipe)) > 0;) run.out.append(buffer, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.code = WEXITSTATUS(status);
  return run;
}

/// Paths the running test may have written; the fixture removes them.
std::vector<std::string>& TempPaths() {
  static std::vector<std::string> paths;
  return paths;
}

std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  TempPaths().push_back(::testing::TempDir() + "/stat_cli_" + test->name() + "_" + name);
  return TempPaths().back();
}

std::string WriteFile(const std::string& name, const std::string& text) {
  const std::string path = TempPath(name);
  std::ofstream(path) << text;
  return path;
}

std::string WriteJsonl(const std::string& name, const std::vector<JsonValue>& lines) {
  std::string text;
  for (const JsonValue& line : lines) text += line.Dump() + "\n";
  return WriteFile(name, text);
}

obs::RunReport BaselineReport(const std::string& bench) {
  auto doc = JsonValue::Load(kBaseline + "BENCH_" + bench + ".json");
  EXPECT_TRUE(doc.ok());
  auto report = obs::RunReport::FromJson(*doc);
  EXPECT_TRUE(report.ok());
  return *report;
}

/// An access record whose total is its stage sum plus `slack_micros`.
serve::RequestRecord Request(int index, int status, double publish_micros,
                             double slack_micros = 50.0) {
  serve::RequestRecord record;
  char id[33];
  std::snprintf(id, sizeof(id), "%032x", index + 1);
  record.request_id = id;
  record.span_id = "00000000000000a1";
  record.tenant = index % 2 == 0 ? "alpha" : "beta";
  record.endpoint = "/v1/publish";
  record.status = status;
  record.stages = {{"serve.parse", 100.0}, {"serve.publish", publish_micros}};
  record.total_micros = record.StageMicrosSum() + slack_micros;
  return record;
}

std::string AccessLog(const std::string& name, int status, double publish_micros,
                      double slack_micros = 50.0) {
  std::vector<JsonValue> lines;
  for (int i = 0; i < 20; ++i) {
    lines.push_back(Request(i, status, publish_micros, slack_micros).ToJson());
  }
  return WriteJsonl(name, lines);
}

const char kExposition[] =
    "# HELP requests_total Requests.\n"
    "# TYPE requests_total counter\n"
    "requests_total 3\n"
    "# HELP latency_seconds Latency.\n"
    "# TYPE latency_seconds histogram\n"
    "latency_seconds_bucket{le=\"0.1\"} BUCKET\n"
    "latency_seconds_bucket{le=\"+Inf\"} 2\n"
    "latency_seconds_sum 0.3\n"
    "latency_seconds_count 2\n";

std::string Exposition(const std::string& name, const std::string& first_bucket) {
  std::string text = kExposition;
  text.replace(text.find("BUCKET"), 6, first_bucket);
  return WriteFile(name, text);
}

class StatCliTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : TempPaths()) std::remove(path.c_str());
    TempPaths().clear();
  }
};

TEST_F(StatCliTest, ReportPassesASelfDiffAndTripsOnATenfoldSlowdown) {
  const std::string base = kBaseline + "BENCH_fig3_5.json";
  EXPECT_EQ(Stat("report " + base + " " + base).code, 0);
  EXPECT_EQ(Stat("report --threshold 1.0 --min_ms 100 --check_digests " + base + " " + base).code,
            0);
  // Boolean flags never swallow the next positional argument.
  EXPECT_EQ(Stat("report --validate_only " + base + " " + base).code, 0);

  obs::RunReport slow = BaselineReport("fig3_5");
  for (auto& phase : slow.phases) phase.wall_ms_total = phase.wall_ms_total * 10 + 1000;
  const std::string slow_path = TempPath("slow.json");
  ASSERT_TRUE(slow.WriteJson(slow_path).ok());
  const StatRun run = Stat("report --threshold 1.0 --min_ms 100 " + base + " " + slow_path);
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("REGRESSION"), std::string::npos) << run.out;
}

TEST_F(StatCliTest, ReportGatesAllocBytesOnRequestAndPrintsPeakRssOfBothSides) {
  // The fig3_5 baseline predates the process peak RSS and still carries the
  // retired per-phase rss_peak_bytes; it loads and gates on alloc bytes.
  const std::string base = kBaseline + "BENCH_fig3_5.json";
  obs::RunReport bloat = BaselineReport("fig3_5");
  for (auto& phase : bloat.phases) {
    phase.alloc_bytes_total = phase.alloc_bytes_total * 2 + (64ull << 20);
  }
  bloat.peak_rss_bytes = 64ull << 20;
  const std::string bloat_path = TempPath("bloat.json");
  ASSERT_TRUE(bloat.WriteJson(bloat_path).ok());
  const std::string gate = "report --threshold 1.0 --min_ms 100 ";
  EXPECT_EQ(Stat(gate + base + " " + bloat_path).code, 0) << "the memory gate is opt-in";
  const StatRun run = Stat(gate + "--mem_threshold 0.5 " + base + " " + bloat_path);
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("MEM REGRESSED"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("(peak rss: baseline -, current 64.0 MB)"), std::string::npos)
      << run.out;

  // The iot baseline's rows have no alloc_bytes_total: no memory verdict.
  obs::RunReport iot = BaselineReport("iot");
  for (auto& phase : iot.phases) phase.alloc_bytes_total = 1ull << 30;
  const std::string iot_path = TempPath("iot.json");
  ASSERT_TRUE(iot.WriteJson(iot_path).ok());
  EXPECT_EQ(
      Stat(gate + "--mem_threshold 0.5 " + kBaseline + "BENCH_iot.json " + iot_path).code, 0);
}

TEST_F(StatCliTest, ReportLabelsEachSidesBuildType) {
  const obs::RunReport base = BaselineReport("fig3_5");
  obs::RunReport other = base;
  other.build.build_type = base.build.build_type == "debug" ? "release" : "debug";
  other.build.compiler = "other-compiler";
  const std::string path = TempPath("other_build.json");
  ASSERT_TRUE(other.WriteJson(path).ok());
  const StatRun run = Stat("report " + kBaseline + "BENCH_fig3_5.json " + path);
  EXPECT_EQ(run.code, 0);
  const std::string expected = "(builds differ: baseline " + base.build.build_type + " \"" +
                               base.build.compiler + "\" vs current " + other.build.build_type +
                               " \"other-compiler\")";
  EXPECT_NE(run.out.find(expected), std::string::npos) << run.out;
}

TEST_F(StatCliTest, ProfilePassesASelfDiffAndTripsOnAFrameShareJump) {
  const std::string base = kBaseline + "PROFILE_fig3_5.json";
  EXPECT_EQ(Stat("profile " + base).code, 0);
  EXPECT_EQ(Stat("profile --top 5 " + base + " " + base).code, 0);

  auto profile = obs::CpuProfile::Load(base);
  ASSERT_TRUE(profile.ok());
  ASSERT_FALSE(profile->phases.empty());
  ASSERT_FALSE(profile->phases.back().self_frames.empty());
  // The least-sampled phase's last listed frame takes as many samples as
  // the whole baseline: its share jumps to about one half.
  profile->phases.back().self_frames.back().samples += profile->samples;
  profile->samples *= 2;
  const std::string jump = TempPath("jump.json");
  ASSERT_TRUE(profile->WriteJson(jump).ok());
  const StatRun run = Stat("profile " + base + " " + jump);
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("REGRESSED"), std::string::npos) << run.out;
}

TEST_F(StatCliTest, AccessPassesASelfDiffAndTripsOnAStageSlowdown) {
  const std::string base = AccessLog("base.jsonl", 200, 2000.0);
  EXPECT_EQ(Stat("access " + base).code, 0);
  EXPECT_EQ(Stat("access --tenant alpha " + base + " " + base).code, 0);
  const StatRun run = Stat("access " + base + " " + AccessLog("slow.jsonl", 200, 30000.0));
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("REGRESSION"), std::string::npos) << run.out;
}

TEST_F(StatCliTest, AccessStageGateAppliesTheSharedRegressionRule) {
  // A stage with a zero baseline mean that grows past the floor regresses.
  // The slack keeps the "total" row's growth (1.5 ms on 10.15 ms) under the
  // relative threshold, so serve.publish alone trips the gate.
  const std::string idle = AccessLog("idle.jsonl", 200, 0.0, 10000.0);
  EXPECT_EQ(Stat("access " + idle + " " + AccessLog("grown.jsonl", 200, 1500.0, 10000.0)).code,
            1);
  // Growth of exactly the floor does not: "total" goes 0.15 -> 1.15 ms.
  EXPECT_EQ(Stat("access " + AccessLog("zero.jsonl", 200, 0.0) + " " +
                 AccessLog("tie.jsonl", 200, 1000.0))
                .code,
            0);
}

TEST_F(StatCliTest, SloJudgesAttainmentAndRollsUpAlertLogs) {
  EXPECT_EQ(Stat("slo " + AccessLog("ok.jsonl", 200, 2000.0)).code, 0);
  const StatRun run = Stat("slo " + AccessLog("unavailable.jsonl", 503, 2000.0));
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("VIOLATED"), std::string::npos) << run.out;

  obs::AlertTransition pending;
  pending.t_seconds = 1.0;
  pending.rule = "availability";
  pending.from = obs::AlertState::kInactive;
  pending.to = obs::AlertState::kPending;
  obs::AlertTransition firing = pending;
  firing.t_seconds = 2.0;
  firing.from = obs::AlertState::kPending;
  firing.to = obs::AlertState::kFiring;
  EXPECT_EQ(Stat("slo " + WriteJsonl("alerts.jsonl", {pending.ToJson(), firing.ToJson()})).code,
            0);
  // Firing again without resolving breaks the per-instance chain.
  EXPECT_EQ(Stat("slo " + WriteJsonl("broken.jsonl", {pending.ToJson(), firing.ToJson(),
                                                      firing.ToJson()}))
                .code,
            2);
}

TEST_F(StatCliTest, AccessAndSloRejectTheSameMalformedRecords) {
  serve::RequestRecord not_hex = Request(0, 200, 2000.0);
  not_hex.request_id = "NOT-HEX";
  serve::RequestRecord over_total = Request(1, 200, 2000.0);
  over_total.total_micros = over_total.StageMicrosSum() - 10.0;
  for (const serve::RequestRecord& bad : {not_hex, over_total}) {
    EXPECT_FALSE(serve::ValidateAccessRecord(bad.ToJson()).ok());
    const std::string log = WriteJsonl("bad.jsonl", {Request(2, 200, 10.0).ToJson(), bad.ToJson()});
    EXPECT_EQ(Stat("access " + log).code, 2);
    EXPECT_EQ(Stat("access --validate_only " + log).code, 2);
    EXPECT_EQ(Stat("slo " + log).code, 2);
    EXPECT_EQ(Stat("slo --validate_only " + log).code, 2);
  }
}

TEST_F(StatCliTest, PromLintsExpositionsAndSeriesCardinality) {
  const std::string valid = Exposition("valid.txt", "1");
  EXPECT_EQ(Stat("prom " + valid).code, 0);
  EXPECT_EQ(Stat("prom --max_series 5 " + valid).code, 0);
  EXPECT_EQ(Stat("prom < " + valid).code, 0);
  EXPECT_EQ(Stat("prom --max_series=4 " + valid).code, 1);
  // A histogram whose buckets are not cumulative is not ingestible.
  EXPECT_EQ(Stat("prom " + Exposition("decreasing.txt", "3")).code, 1);
}

TEST_F(StatCliTest, EverySubcommandExitsTwoOnAMissingFile) {
  const std::string missing = TempPath("missing");
  const std::string report = kBaseline + "BENCH_fig3_5.json";
  EXPECT_EQ(Stat("report " + report + " " + missing).code, 2);
  EXPECT_EQ(Stat("profile " + missing).code, 2);
  EXPECT_EQ(Stat("access " + missing).code, 2);
  EXPECT_EQ(Stat("slo " + missing).code, 2);
  EXPECT_EQ(Stat("prom " + missing).code, 2);
}

TEST_F(StatCliTest, SchemaInvalidInputsExitTwo) {
  const std::string report = kBaseline + "BENCH_fig3_5.json";
  const std::string profile = kBaseline + "PROFILE_fig3_5.json";
  // Each document fed to the subcommand that expects the other schema.
  EXPECT_EQ(Stat("report " + report + " " + profile).code, 2);
  EXPECT_EQ(Stat("profile " + report).code, 2);
  const std::string not_access = WriteJsonl("other.jsonl", {JsonValue::Object()});
  EXPECT_EQ(Stat("access " + not_access).code, 2);
  EXPECT_EQ(Stat("slo " + not_access).code, 2);
  EXPECT_EQ(Stat("access " + WriteFile("garbage.jsonl", "{not json\n")).code, 2);
}

TEST_F(StatCliTest, BadFlagsAndArgumentsExitTwo) {
  const std::string report = kBaseline + "BENCH_fig3_5.json";
  const std::string pair = " " + report + " " + report;
  EXPECT_EQ(Stat("report --threshhold 9" + pair).code, 2);  // typo'd flag name
  EXPECT_EQ(Stat("report --threshold abc" + pair).code, 2);
  EXPECT_EQ(Stat("report --threshold=-1" + pair).code, 2);
  EXPECT_EQ(Stat("report --min_mem_mb" + pair).code, 2);  // a path is not a number
  EXPECT_EQ(Stat("report " + report).code, 2);
  EXPECT_EQ(Stat("report --check_digests=maybe" + pair).code, 2);
  EXPECT_EQ(Stat("profile --top 0 " + kBaseline + "PROFILE_fig3_5.json").code, 2);
  EXPECT_EQ(Stat("access --min_ms x " + AccessLog("log.jsonl", 200, 1.0)).code, 2);
  EXPECT_EQ(Stat("slo --slo_config " + TempPath("no_config.json") + " " +
                 AccessLog("log.jsonl", 200, 1.0))
                .code,
            2);
  EXPECT_EQ(Stat("prom --max_series abc " + Exposition("valid.txt", "1")).code, 2);
  EXPECT_EQ(Stat("prom --bogus " + Exposition("valid.txt", "1")).code, 2);
  EXPECT_EQ(Stat("").code, 2);
  EXPECT_EQ(Stat("benchstat" + pair).code, 2);
  EXPECT_EQ(Stat("report --help").code, 2);
}

}  // namespace
}  // namespace ppdp
