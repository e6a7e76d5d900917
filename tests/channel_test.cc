#include "iot/channel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "obs/ledger.h"

namespace ppdp::iot {
namespace {

std::vector<SensorSchema> OneSensor() { return {{"occupancy", 2}}; }

fault::RetryPolicy GenerousPolicy() {
  fault::RetryPolicy policy;
  policy.max_attempts = 64;
  policy.deadline_ms = 0.0;  // no deadline: only the attempt cap stops us
  return policy;
}

/// Drives `n` raw readings through proxy -> channel -> server and returns
/// how many unique perturbed readings the proxy actually released.
size_t Pump(PrivacyProxy& proxy, ResilientChannel& channel, size_t n, Rng& source,
            const std::vector<double>& truth) {
  size_t released = 0;
  for (size_t i = 0; i < n; ++i) {
    auto reading = proxy.Report(0, source.Categorical(truth));
    if (!reading.ok()) continue;
    ++released;
    (void)channel.Send(*reading);
  }
  return released;
}

TEST(EnvelopeChecksumTest, DetectsAnyFieldFlip) {
  Envelope envelope;
  envelope.device = 3;
  envelope.seq = 14;
  envelope.reading = {0, 1, 2.0};
  envelope.checksum = EnvelopeChecksum(envelope);
  Envelope corrupted = envelope;
  corrupted.reading.value ^= 1u;
  EXPECT_NE(EnvelopeChecksum(corrupted), envelope.checksum);
  corrupted = envelope;
  corrupted.seq += 1;
  EXPECT_NE(EnvelopeChecksum(corrupted), envelope.checksum);
}

TEST(EnvelopeChecksumTest, IsFnv1aOverTheLittleEndianPayloadWords) {
  Envelope envelope;
  envelope.device = 1;
  envelope.seq = 2;
  envelope.reading = {3, 4, 0.5};
  // FNV-1a 64 of the 40 bytes struct.pack("<4Qd", 1, 2, 3, 4, 0.5).
  EXPECT_EQ(EnvelopeChecksum(envelope), 0x4B9243B3BB6735ECULL);
}

TEST(EnvelopeCodecTest, RoundTripsEveryField) {
  Envelope envelope;
  envelope.device = 7;
  envelope.seq = 123456789;
  envelope.reading = {2, 1, 0.75};
  envelope.checksum = EnvelopeChecksum(envelope);

  const std::string wire = EncodeEnvelope(envelope);
  ASSERT_EQ(wire.size(), kEnvelopeWireBytes);
  auto decoded = DecodeEnvelope(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->device, envelope.device);
  EXPECT_EQ(decoded->seq, envelope.seq);
  EXPECT_EQ(decoded->reading.sensor, envelope.reading.sensor);
  EXPECT_EQ(decoded->reading.value, envelope.reading.value);
  EXPECT_EQ(decoded->reading.epsilon, envelope.reading.epsilon);
  EXPECT_EQ(decoded->checksum, envelope.checksum);
  EXPECT_EQ(EncodeEnvelope(*decoded), wire);  // byte-identical re-encode
}

TEST(EnvelopeCodecTest, RejectsStructurallyInvalidFrames) {
  Envelope envelope;
  envelope.device = 1;
  envelope.seq = 2;
  envelope.reading = {0, 1, 0.5};
  envelope.checksum = EnvelopeChecksum(envelope);
  const std::string wire = EncodeEnvelope(envelope);

  EXPECT_FALSE(DecodeEnvelope("").ok());
  EXPECT_FALSE(DecodeEnvelope(wire.substr(0, kEnvelopeWireBytes - 1)).ok());
  EXPECT_FALSE(DecodeEnvelope(wire + "x").ok());

  std::string bad_magic = wire;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(DecodeEnvelope(bad_magic).ok());

  // A negative or non-finite epsilon is structural garbage, not a reading.
  std::string bad_epsilon = wire;
  const double negative = -1.0;
  std::memcpy(&bad_epsilon[40], &negative, sizeof(negative));
  auto rejected = DecodeEnvelope(bad_epsilon);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Flipping a payload bit decodes fine structurally; the checksum layer
  // (not the codec) is what catches it.
  std::string flipped = wire;
  flipped[20] ^= 0x40;
  auto decoded = DecodeEnvelope(flipped);
  ASSERT_TRUE(decoded.ok());
  EXPECT_NE(EnvelopeChecksum(*decoded), decoded->checksum);
}

TEST(ResilientChannelTest, CleanLinkDeliversEverythingFirstTry) {
  fault::FaultInjector::Global().Disarm();
  AggregationServer server(OneSensor());
  ResilientChannel channel(&server, GenerousPolicy(), /*seed=*/1);
  PrivacyProxy proxy(OneSensor(), {{2.0, 1e9}}, /*seed=*/2);
  Rng source(3);
  size_t released = Pump(proxy, channel, 500, source, {0.3, 0.7});
  ASSERT_EQ(released, 500u);
  const ChannelReport& report = channel.report();
  EXPECT_EQ(report.sent, 500u);
  EXPECT_EQ(report.delivered, 500u);
  EXPECT_EQ(report.attempts, 500u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.gave_up, 0u);
  EXPECT_DOUBLE_EQ(report.ObservedLossRate(), 0.0);
  EXPECT_DOUBLE_EQ(channel.VirtualNowMs(), 0.0);
  EXPECT_EQ(server.ReadingCount(0), 500u);
}

TEST(ResilientChannelTest, SameFaultSeedReplaysIdenticalRunAndEstimates) {
  auto run_once = [] {
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.point_rates["iot.send"] = 0.3;
    fault::ScopedFaultPlan scoped(plan);
    AggregationServer server(OneSensor());
    ResilientChannel channel(&server, GenerousPolicy(), /*seed=*/5);
    PrivacyProxy proxy(OneSensor(), {{2.0, 1e9}}, /*seed=*/6);
    Rng source(7);
    Pump(proxy, channel, 800, source, {0.3, 0.7});
    auto estimate = server.EstimateFrequencies(0);
    EXPECT_TRUE(estimate.ok());
    return std::make_pair(channel.report(), *estimate);
  };
  auto [report_a, estimate_a] = run_once();
  auto [report_b, estimate_b] = run_once();
  // Byte-identical transport history...
  EXPECT_EQ(report_a.attempts, report_b.attempts);
  EXPECT_EQ(report_a.retries, report_b.retries);
  EXPECT_EQ(report_a.drops, report_b.drops);
  EXPECT_EQ(report_a.duplicates, report_b.duplicates);
  EXPECT_EQ(report_a.corruptions, report_b.corruptions);
  EXPECT_EQ(report_a.checksum_rejects, report_b.checksum_rejects);
  EXPECT_EQ(report_a.dedup_hits, report_b.dedup_hits);
  EXPECT_EQ(report_a.delivered, report_b.delivered);
  EXPECT_DOUBLE_EQ(report_a.virtual_ms, report_b.virtual_ms);
  // ...and bit-for-bit identical final estimates.
  EXPECT_EQ(estimate_a, estimate_b);
  // The chaos actually happened (otherwise this test proves nothing).
  EXPECT_GT(report_a.drops + report_a.corruptions + report_a.duplicates, 0u);
  EXPECT_GT(report_a.retries, 0u);
}

TEST(ResilientChannelTest, BudgetChargedOncePerReadingUnderAnyFaultPattern) {
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.point_rates["iot.send"] = 0.5;  // heavy chaos on the wire only
  fault::ScopedFaultPlan scoped(plan);

  obs::PrivacyLedger ledger(1e9);
  AggregationServer server(OneSensor());
  ResilientChannel channel(&server, GenerousPolicy(), /*seed=*/8);
  const double epsilon = 2.0;
  const double total_budget = 1e6;
  PrivacyProxy proxy(OneSensor(), {{epsilon, total_budget}}, /*seed=*/9);
  proxy.AttachLedger(&ledger);
  Rng source(10);
  size_t released = Pump(proxy, channel, 600, source, {0.4, 0.6});

  // The privacy-safety invariant: no matter what the link did — drops,
  // retransmissions, duplicates, corrupted copies — the charged budget is
  // exactly ε × (unique perturbed readings), on the device and the ledger.
  EXPECT_NEAR(proxy.RemainingBudget(0), total_budget - epsilon * released, 1e-6);
  EXPECT_NEAR(ledger.spent(), epsilon * released, 1e-6);
  const ChannelReport& report = channel.report();
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.duplicates + report.dedup_hits, 0u);
  // The server never counts a reading twice: everything it ingested is a
  // distinct delivered reading.
  EXPECT_EQ(server.ReadingCount(0), report.delivered);
  EXPECT_LE(report.delivered, report.sent);
}

TEST(ResilientChannelTest, DedupAndChecksumKeepTheEstimateCloseToTruth) {
  fault::FaultPlan plan;
  plan.seed = 4;
  plan.point_rates["iot.send"] = 1.0;  // every wire attempt misbehaves
  fault::ScopedFaultPlan scoped(plan);
  AggregationServer server(OneSensor());
  ResilientChannel channel(&server, GenerousPolicy(), /*seed=*/11);
  PrivacyProxy proxy(OneSensor(), {{3.0, 1e9}}, /*seed=*/12);
  Rng source(13);
  size_t released = Pump(proxy, channel, 4000, source, {0.3, 0.7});
  const ChannelReport& report = channel.report();
  // All four failure kinds occurred and were survived.
  EXPECT_GT(report.drops, 0u);
  EXPECT_GT(report.duplicates, 0u);
  EXPECT_GT(report.corruptions, 0u);
  EXPECT_EQ(report.checksum_rejects, report.corruptions);
  EXPECT_GT(report.dedup_hits, 0u);
  EXPECT_GT(report.virtual_ms, 0.0);
  // At-least-once + dedup: delivered readings are unique, and with a
  // generous retry budget nearly all of them make it.
  EXPECT_EQ(server.ReadingCount(0), report.delivered);
  EXPECT_GT(report.delivered, released * 9 / 10);
  auto estimate = server.EstimateFrequencies(0);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(ServiceQuality(*estimate, {0.3, 0.7}), 0.9);
}

TEST(ResilientChannelTest, GivesUpWhenRetryBudgetIsExhausted) {
  fault::FaultPlan plan;
  plan.seed = 6;
  plan.point_rates["iot.send"] = 1.0;
  fault::ScopedFaultPlan scoped(plan);
  AggregationServer server(OneSensor());
  fault::RetryPolicy tight;
  tight.max_attempts = 1;  // no second chances
  tight.deadline_ms = 0.0;
  ResilientChannel channel(&server, tight, /*seed=*/14);
  PrivacyProxy proxy(OneSensor(), {{2.0, 1e9}}, /*seed=*/15);
  size_t unavailable = 0, delivered_ok = 0;
  for (size_t i = 0; i < 200; ++i) {
    auto reading = proxy.Report(0, i % 2);
    ASSERT_TRUE(reading.ok());
    Status sent = channel.Send(*reading);
    if (sent.ok()) {
      ++delivered_ok;
    } else {
      EXPECT_EQ(sent.code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_GT(delivered_ok, 0u);
  EXPECT_EQ(channel.report().gave_up, unavailable);
  EXPECT_GT(channel.report().ObservedLossRate(), 0.0);
}

TEST(ResilientChannelTest, DeadlineExceededWhenVirtualClockRunsOut) {
  fault::FaultPlan plan;
  plan.seed = 16;
  plan.point_rates["iot.send"] = 1.0;
  fault::ScopedFaultPlan scoped(plan);
  AggregationServer server(OneSensor());
  fault::RetryPolicy strict;
  strict.max_attempts = 1000;       // attempts effectively unlimited...
  strict.initial_backoff_ms = 50.0;
  strict.deadline_ms = 40.0;        // ...but the clock is not
  ResilientChannel channel(&server, strict, /*seed=*/17);
  PrivacyProxy proxy(OneSensor(), {{2.0, 1e9}}, /*seed=*/18);
  bool saw_deadline = false;
  for (size_t i = 0; i < 100 && !saw_deadline; ++i) {
    auto reading = proxy.Report(0, 0);
    ASSERT_TRUE(reading.ok());
    Status sent = channel.Send(*reading);
    if (!sent.ok()) {
      EXPECT_EQ(sent.code(), StatusCode::kDeadlineExceeded);
      saw_deadline = true;
    }
  }
  EXPECT_TRUE(saw_deadline);
}

TEST(ResilientChannelTest, DeterministicServerRejectionIsNotRetried) {
  fault::FaultInjector::Global().Disarm();
  AggregationServer server(OneSensor());
  ResilientChannel channel(&server, GenerousPolicy(), /*seed=*/19);
  ASSERT_TRUE(channel.Send({0, 1, 1.0}).ok());
  uint64_t attempts_before = channel.report().attempts;
  // Mixed epsilon: the server rejects it deterministically every time, so
  // the channel must surface the error after ONE attempt, not burn retries.
  Status rejected = channel.Send({0, 1, 2.0});
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("ResilientChannel receiver"), std::string::npos);
  EXPECT_EQ(channel.report().attempts, attempts_before + 1);
  // The rejected payload is not in the estimate.
  EXPECT_EQ(server.ReadingCount(0), 1u);
}

TEST(EstimateWithLossTest, CleanTransportIsNotDegraded) {
  fault::FaultInjector::Global().Disarm();
  AggregationServer server(OneSensor());
  PrivacyProxy proxy(OneSensor(), {{2.0, 1e9}}, /*seed=*/20);
  Rng source(21);
  for (size_t i = 0; i < 1000; ++i) {
    auto reading = proxy.Report(0, source.Categorical({0.3, 0.7}));
    ASSERT_TRUE(reading.ok());
    ASSERT_TRUE(server.Ingest(*reading).ok());
  }
  auto estimate = server.EstimateWithLoss(0, /*expected=*/1000);
  ASSERT_TRUE(estimate.ok());
  EXPECT_FALSE(estimate->degraded);
  EXPECT_DOUBLE_EQ(estimate->loss_rate, 0.0);
  EXPECT_EQ(estimate->received, 1000u);
  EXPECT_GT(estimate->ci_halfwidth, 0.0);
}

TEST(EstimateWithLossTest, LossWidensTheIntervalAndFlagsDegradation) {
  fault::FaultInjector::Global().Disarm();
  auto estimate_with = [](size_t ingested, size_t expected) {
    AggregationServer server(OneSensor());
    PrivacyProxy proxy(OneSensor(), {{2.0, 1e9}}, /*seed=*/22);
    Rng source(23);
    for (size_t i = 0; i < ingested; ++i) {
      auto reading = proxy.Report(0, source.Categorical({0.3, 0.7}));
      EXPECT_TRUE(server.Ingest(*reading).ok());
    }
    auto estimate = server.EstimateWithLoss(0, expected, /*degraded_threshold=*/0.1);
    EXPECT_TRUE(estimate.ok());
    return *estimate;
  };
  AggregationServer::RobustEstimate full = estimate_with(1000, 1000);
  AggregationServer::RobustEstimate lossy = estimate_with(400, 1000);
  EXPECT_FALSE(full.degraded);
  EXPECT_TRUE(lossy.degraded);
  EXPECT_DOUBLE_EQ(lossy.loss_rate, 0.6);
  // Fewer survivors -> honest, wider interval.
  EXPECT_GT(lossy.ci_halfwidth, full.ci_halfwidth);
}

TEST(EstimateWithLossTest, RejectsNonsenseArguments) {
  AggregationServer server(OneSensor());
  ASSERT_TRUE(server.Ingest({0, 1, 1.0}).ok());
  EXPECT_EQ(server.EstimateWithLoss(9, 10).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.EstimateWithLoss(0, 10, 1.5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.EstimateWithLoss(0, 0).status().code(), StatusCode::kInvalidArgument);
  AggregationServer empty(OneSensor());
  EXPECT_EQ(empty.EstimateWithLoss(0, 10).status().code(), StatusCode::kFailedPrecondition);
}

TEST(ChannelReportTest, SummaryListsEveryCounter) {
  ChannelReport report;
  report.sent = 10;
  report.delivered = 8;
  EXPECT_EQ(report.Summary().num_rows(), 12u);
  EXPECT_NEAR(report.ObservedLossRate(), 0.2, 1e-12);
}

}  // namespace
}  // namespace ppdp::iot
