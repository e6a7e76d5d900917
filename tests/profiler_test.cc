// Sampling-profiler suite: resource probes, capture + phase attribution,
// the ppdp.profile.v1 round trip, the profile diff gate, and the safety
// properties the design leans on — profiling must not perturb published
// results (byte-identity with the profiler on), must coexist with an
// active ParallelFor (this doubles as a TSan regression), and must stay
// deterministic when SIGPROF lands on top of exec.chunk fault injection.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "dp/synthesizer.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace ppdp::obs {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

/// Burns roughly `cpu_seconds` of CPU time on the calling thread — the
/// profiler samples per second of *CPU* time, so sleeps would yield nothing.
/// Each outer iteration locks a mutex: under TSan an asynchronous signal is
/// held until the thread enters an intercepted call, and at most one is
/// held per signal number, so a burn made only of arithmetic and getrusage
/// would fold all its SIGPROFs into one.
uint64_t BurnCpu(double cpu_seconds) {
  ProcessCpu start = ReadProcessCpu();
  std::mutex delivery_point;
  volatile uint64_t sink = 1;
  while (ReadProcessCpu().user_seconds + ReadProcessCpu().system_seconds -
             start.user_seconds - start.system_seconds <
         cpu_seconds) {
    std::lock_guard<std::mutex> lock(delivery_point);
    for (int i = 0; i < 100000; ++i) sink = sink * 2862933555777941757ULL + 3037000493ULL;
  }
  return sink;
}

TEST(ResourceProbesTest, ProcessMemoryAndCpuAreSane) {
  ProcessMemory memory = ReadProcessMemory();
  EXPECT_GT(memory.rss_bytes, 0u);
  EXPECT_GE(memory.peak_rss_bytes, memory.rss_bytes);
  EXPECT_GT(CurrentRssBytesCached(MonotonicSeconds()), 0u);

  ProcessCpu before = ReadProcessCpu();
  EXPECT_GE(before.user_seconds, 0.0);
  EXPECT_GE(before.system_seconds, 0.0);
  BurnCpu(0.02);
  ProcessCpu after = ReadProcessCpu();
  EXPECT_GT(after.user_seconds + after.system_seconds,
            before.user_seconds + before.system_seconds);
}

TEST(ResourceProbesTest, ThreadAllocCountersTrackOperatorNew) {
  uint64_t bytes_before = ThreadAllocBytes();
  uint64_t calls_before = ThreadAllocCalls();
  {
    std::vector<char> block(1 << 20);
    block[0] = 1;
    EXPECT_GE(ThreadAllocBytes() - bytes_before, static_cast<uint64_t>(1 << 20));
    EXPECT_GT(ThreadAllocCalls(), calls_before);
  }
  // The counters are cumulative rates: freeing must not roll them back.
  EXPECT_GE(ThreadAllocBytes() - bytes_before, static_cast<uint64_t>(1 << 20));

  // Another thread's allocations never leak into this thread's counter.
  uint64_t mine = ThreadAllocBytes();
  std::thread other([] {
    std::vector<char> theirs(1 << 20);
    theirs[0] = 1;
    EXPECT_GE(ThreadAllocBytes(), static_cast<uint64_t>(1 << 20));
  });
  other.join();
  EXPECT_LT(ThreadAllocBytes() - mine, static_cast<uint64_t>(1 << 20));
}

TEST(ProfilerTest, OffByDefaultWithNoSamples) {
  Profiler& profiler = Profiler::Global();
  EXPECT_FALSE(profiler.running());
  { TraceSpan span(PPDP_SPAN_SITE("profiler_test.unprofiled")); BurnCpu(0.01); }
  EXPECT_EQ(profiler.samples_recorded(), 0u);
}

TEST(ProfilerTest, StartRejectsBadRatesAndDoubleStart) {
  Profiler& profiler = Profiler::Global();
  EXPECT_FALSE(profiler.Start({.hz = 0}).ok());
  EXPECT_FALSE(profiler.Start({.hz = -5}).ok());
  EXPECT_FALSE(profiler.Start({.hz = 20000}).ok());
  ASSERT_TRUE(profiler.Start({.hz = 97}).ok());
  EXPECT_FALSE(profiler.Start({.hz = 97}).ok()) << "double start must fail";
  profiler.Stop();
  profiler.Stop();  // idempotent
  profiler.ClearSamples();
}

TEST(ProfilerTest, CaptureAttributesSamplesToInnermostSpan) {
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start({.hz = 997}).ok());
  {
    TraceSpan outer(PPDP_SPAN_SITE("profiler_test.outer"));
    {
      TraceSpan inner(PPDP_SPAN_SITE("profiler_test.inner"));
      BurnCpu(0.25);
    }
  }
  profiler.Stop();
  EXPECT_GT(profiler.samples_recorded(), 10u) << "997 Hz over 0.25 s of CPU";

  CpuProfile profile = profiler.Collect("attribution");
  profiler.ClearSamples();
  EXPECT_EQ(profile.name, "attribution");
  EXPECT_EQ(profile.hz, 997);
  EXPECT_GE(profile.threads_profiled, 1);
  EXPECT_GT(profile.samples, 10u);
  EXPECT_FALSE(profile.compiler.empty());

  // The innermost span wins the attribution; the burn ran under "inner".
  uint64_t inner_samples = 0, outer_samples = 0;
  for (const CpuProfile::Phase& phase : profile.phases) {
    if (phase.name == "profiler_test.inner") inner_samples = phase.samples;
    if (phase.name == "profiler_test.outer") outer_samples = phase.samples;
  }
  EXPECT_GT(inner_samples, 0u) << "burn phase never sampled";
  EXPECT_GT(inner_samples, outer_samples);

  // Every phase carries frames, and the folded stacks are phase-rooted.
  bool found_stack = false;
  for (const CpuProfile::Stack& stack : profile.stacks) {
    if (stack.stack.rfind("profiler_test.inner;", 0) == 0) found_stack = true;
    EXPECT_GT(stack.count, 0u);
  }
  EXPECT_TRUE(found_stack) << "no folded stack rooted at the burn phase";
}

TEST(ProfilerTest, ProfileJsonRoundTripsAndValidates) {
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start({.hz = 997}).ok());
  {
    TraceSpan span(PPDP_SPAN_SITE("profiler_test.roundtrip"));
    BurnCpu(0.15);
  }
  profiler.Stop();
  CpuProfile profile = profiler.Collect("roundtrip");
  profiler.ClearSamples();
  ASSERT_GT(profile.samples, 0u);

  JsonValue doc = profile.ToJson();
  EXPECT_EQ(doc.GetStringOr("schema", ""), "ppdp.profile.v1");

  Result<CpuProfile> reloaded = CpuProfile::FromJson(doc);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->name, profile.name);
  EXPECT_EQ(reloaded->hz, profile.hz);
  EXPECT_EQ(reloaded->samples, profile.samples);
  EXPECT_EQ(reloaded->dropped, profile.dropped);
  EXPECT_EQ(reloaded->threads_profiled, profile.threads_profiled);
  ASSERT_EQ(reloaded->phases.size(), profile.phases.size());
  for (size_t i = 0; i < profile.phases.size(); ++i) {
    EXPECT_EQ(reloaded->phases[i].name, profile.phases[i].name);
    EXPECT_EQ(reloaded->phases[i].samples, profile.phases[i].samples);
    EXPECT_EQ(reloaded->phases[i].self_frames.size(), profile.phases[i].self_frames.size());
  }
  EXPECT_EQ(reloaded->stacks.size(), profile.stacks.size());

  // File round trip plus the folded companion flamegraph.pl consumes.
  std::string json_path = TempPath("profile_roundtrip.json");
  std::string folded_path = TempPath("profile_roundtrip.folded");
  ASSERT_TRUE(profile.WriteJson(json_path).ok());
  ASSERT_TRUE(profile.WriteFolded(folded_path).ok());
  Result<CpuProfile> loaded = CpuProfile::Load(json_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->samples, profile.samples);

  std::ifstream folded(folded_path);
  ASSERT_TRUE(folded.good());
  size_t lines = 0;
  std::string line;
  while (std::getline(folded, line)) {
    if (line.empty()) continue;
    ++lines;
    // "phase;frame;... count": space-separated, count last, semicolon stacks.
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
  }
  EXPECT_EQ(lines, profile.stacks.size());

  // The human-facing tables render without touching missing rows.
  EXPECT_GT(profile.PhaseTable().num_rows(), 0u);
  EXPECT_GT(profile.TopFramesTable(5).num_rows(), 0u);
}

TEST(ProfilerTest, ValidateRejectsMalformedDocuments) {
  EXPECT_FALSE(CpuProfile::FromJson(JsonValue::Number(1)).ok());
  JsonValue wrong_tag = JsonValue::Object();
  wrong_tag.Set("schema", JsonValue::String("something.else"));
  EXPECT_FALSE(CpuProfile::FromJson(wrong_tag).ok());

  // A real document degrades once a required section changes kind.
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start({.hz = 97}).ok());
  profiler.Stop();
  JsonValue doc = profiler.Collect("validate").ToJson();
  profiler.ClearSamples();
  ASSERT_TRUE(CpuProfile::FromJson(doc).ok());
  JsonValue bad_phases = JsonValue::Parse(doc.Dump()).value();
  bad_phases.Set("phases", JsonValue::String("nope"));
  EXPECT_FALSE(CpuProfile::FromJson(bad_phases).ok());
  JsonValue no_hz = JsonValue::Parse(doc.Dump()).value();
  no_hz.Set("hz", JsonValue::String("97"));
  EXPECT_FALSE(CpuProfile::FromJson(no_hz).ok());
}

/// Hand-built profile with one phase whose self frames are `frames`
/// (frame name, samples) over `total` samples.
CpuProfile FrameProfile(uint64_t total,
                        std::vector<std::pair<std::string, uint64_t>> frames) {
  CpuProfile profile;
  profile.name = "gate";
  profile.hz = 97;
  profile.samples = total;
  profile.threads_profiled = 1;
  CpuProfile::Phase phase;
  phase.name = "p";
  phase.samples = total;
  for (auto& [frame, samples] : frames) {
    phase.self_frames.push_back({frame, samples});
  }
  profile.phases.push_back(std::move(phase));
  return profile;
}

TEST(ProfileDiffTest, ShareGrowthBeyondBothGatesRegresses) {
  // kernel: 10% -> 40% of samples. +300% relative, +30pp absolute: regress.
  CpuProfile baseline = FrameProfile(1000, {{"kernel", 100}, {"other", 900}});
  CpuProfile current = FrameProfile(2000, {{"kernel", 800}, {"other", 1200}});
  ProfileDiff diff = DiffProfiles(baseline, current, ProfileDiffOptions{});
  EXPECT_TRUE(diff.regressed);
  bool kernel_flagged = false;
  for (const FrameDelta& delta : diff.frames) {
    if (delta.frame == "kernel") {
      kernel_flagged = delta.regressed;
      EXPECT_NEAR(delta.baseline_share, 0.1, 1e-9);
      EXPECT_NEAR(delta.current_share, 0.4, 1e-9);
      EXPECT_NEAR(delta.ratio, 4.0, 1e-9);
    }
  }
  EXPECT_TRUE(kernel_flagged);
  EXPECT_GT(diff.Summary().num_rows(), 0u);
}

TEST(ProfileDiffTest, SubNoiseAndOneSidedFramesNeverRegress) {
  // 0.1% -> 0.5% quintuples but moves only 0.4pp: under the 2pp floor.
  CpuProfile baseline = FrameProfile(10000, {{"tiny", 10}, {"main", 9990}});
  CpuProfile current = FrameProfile(10000, {{"tiny", 50}, {"main", 9950}});
  EXPECT_FALSE(DiffProfiles(baseline, current, ProfileDiffOptions{}).regressed);

  // Frames that appear or vanish are reported, never gating (code evolves).
  CpuProfile renamed = FrameProfile(10000, {{"brand_new", 5000}, {"main", 5000}});
  ProfileDiff diff = DiffProfiles(baseline, renamed, ProfileDiffOptions{});
  EXPECT_FALSE(diff.regressed);
  bool saw_new = false, saw_gone = false;
  for (const FrameDelta& delta : diff.frames) {
    if (delta.frame == "brand_new") saw_new = delta.only_in_current;
    if (delta.frame == "tiny") saw_gone = delta.only_in_baseline;
  }
  EXPECT_TRUE(saw_new);
  EXPECT_TRUE(saw_gone);
}

TEST(ProfilerTest, SurvivesActiveParallelForAcrossWorkers) {
  // The pool's workers hold ProfiledThreadScope for their lifetime; arming
  // timers on them mid-run and sampling while they execute chunks must be
  // race-free (this is the TSan regression the CI sanitizer job runs).
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(4).ok());
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start({.hz = 499}).ok());
  std::atomic<uint64_t> checksum{0};
  {
    TraceSpan span(PPDP_SPAN_SITE("profiler_test.parallel"));
    for (int round = 0; round < 4; ++round) {
      exec::ParallelFor(0, 512, 16, [&](size_t i) {
        volatile uint64_t sink = i;
        for (int k = 0; k < 20000; ++k) sink = sink * 6364136223846793005ULL + 1442695040888963407ULL;
        checksum.fetch_add(sink % 97, std::memory_order_relaxed);
      });
    }
  }
  profiler.Stop();
  CpuProfile profile = profiler.Collect("parallel");
  profiler.ClearSamples();
  EXPECT_GT(profile.samples, 0u);
  EXPECT_GT(checksum.load(), 0u);
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(0).ok());
}

TEST(ProfilerTest, SigprofOnTopOfExecChunkFaultsKeepsResultsExact) {
  // SIGPROF interrupts threads sleeping inside exec.chunk delay faults
  // (EINTR paths) and threads mid-chunk alike; neither may change a bit of
  // output. Same contract as DeterminismTest, with the profiler live.
  Rng data_rng(23);
  dp::CategoricalData data;
  for (size_t i = 0; i < 80; ++i) {
    dp::CategoricalRow row(16);
    for (auto& v : row) v = static_cast<int8_t>(data_rng.Uniform(3));
    data.push_back(row);
  }
  auto run = [&](int threads) {
    dp::SynthesizerConfig config;
    config.epsilon = 1.0;
    config.structure_fraction = 0.3;
    config.seed = 17;
    config.threads = threads;
    auto model = dp::PrivateSynthesizer::Fit(data, config);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    Rng sample_rng(99);
    return std::make_pair(model->parents(), model->Sample(30, sample_rng));
  };
  auto clean = run(1);

  fault::FaultPlan plan;
  plan.seed = 7;
  plan.rate = 0.0;
  plan.point_rates["exec.chunk"] = 0.2;
  plan.max_delay_ms = 0.3;
  fault::ScopedFaultPlan scoped(plan);

  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start({.hz = 997}).ok());
  auto chaotic_serial = run(1);
  auto chaotic_parallel = run(4);
  profiler.Stop();
  profiler.ClearSamples();

  EXPECT_EQ(clean, chaotic_serial) << "profiled run differs from clean run";
  EXPECT_EQ(clean, chaotic_parallel) << "profiled parallel run differs";
}

TEST(ProfilerTest, PublishedResultsAreByteIdenticalWithProfilingOn) {
  // The determinism acceptance gate: everything a bench publishes (CSV rows
  // are formatted straight from these values) must be byte-identical with
  // --profile_hz on or off, serial or parallel.
  Rng data_rng(41);
  dp::CategoricalData data;
  for (size_t i = 0; i < 100; ++i) {
    dp::CategoricalRow row(20);
    for (auto& v : row) v = static_cast<int8_t>(data_rng.Uniform(3));
    data.push_back(row);
  }
  auto run = [&](int threads) {
    dp::SynthesizerConfig config;
    config.epsilon = 0.8;
    config.structure_fraction = 0.3;
    config.seed = 29;
    config.threads = threads;
    auto model = dp::PrivateSynthesizer::Fit(data, config);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    Rng sample_rng(5);
    return std::make_pair(model->parents(), model->Sample(40, sample_rng));
  };

  auto unprofiled = run(1);
  auto unprofiled_parallel = run(4);
  ASSERT_EQ(unprofiled, unprofiled_parallel);

  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start({.hz = 997}).ok());
  auto profiled = run(1);
  auto profiled_parallel = run(4);
  profiler.Stop();
  profiler.ClearSamples();

  EXPECT_EQ(unprofiled, profiled) << "profiling perturbed serial results";
  EXPECT_EQ(unprofiled, profiled_parallel) << "profiling perturbed parallel results";
}

TEST(ProfiledThreadScopeTest, NestedScopesRegisterOnce) {
  size_t before = Profiler::Global().threads_registered();
  std::thread worker([&] {
    ProfiledThreadScope outer;
    EXPECT_EQ(Profiler::Global().threads_registered(), before + 1);
    {
      ProfiledThreadScope inner;  // nesting: must not double-register
      EXPECT_EQ(Profiler::Global().threads_registered(), before + 1);
    }
    // The inner scope's exit must not tear down the outer registration.
    EXPECT_EQ(Profiler::Global().threads_registered(), before + 1);
  });
  worker.join();
  EXPECT_EQ(Profiler::Global().threads_registered(), before);
}

}  // namespace
}  // namespace ppdp::obs
