#include "serve/serve_app.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "obs/wal.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/coalescer.h"
#include "serve/request_trace.h"
#include "serve/tenants.h"

namespace ppdp::serve {
namespace {

/// Small corpus so each test's Create + publish runs stay fast.
ServeOptions FastOptions() {
  ServeOptions options;
  options.port = 0;
  options.graph_scale = 0.1;
  options.genome_snps = 60;
  options.seed = 11;
  options.threads = 2;
  return options;
}

JsonValue PublishBody(const std::string& tenant, double epsilon,
                      const std::string& kind = "genome") {
  JsonValue body = JsonValue::Object();
  body.Set("tenant", JsonValue::String(tenant));
  body.Set("kind", JsonValue::String(kind));
  body.Set("epsilon", JsonValue::Number(epsilon));
  return body;
}

JsonValue AggregateBody(const std::string& tenant, double epsilon,
                        const std::string& op = "histogram") {
  JsonValue body = JsonValue::Object();
  body.Set("tenant", JsonValue::String(tenant));
  body.Set("op", JsonValue::String(op));
  body.Set("epsilon", JsonValue::Number(epsilon));
  return body;
}

TEST(TenantRegistryTest, ValidatesNamesCreatesOnceAndCapsTenants) {
  TenantRegistry registry({.budget_per_tenant = 2.0, .max_tenants = 2});
  EXPECT_FALSE(TenantRegistry::ValidateName("").ok());
  EXPECT_FALSE(TenantRegistry::ValidateName("bad name").ok());
  EXPECT_FALSE(TenantRegistry::ValidateName(std::string(65, 'a')).ok());
  EXPECT_TRUE(TenantRegistry::ValidateName("Tenant_1.a-b").ok());

  auto first = registry.ForTenant("alpha");
  ASSERT_TRUE(first.ok());
  auto again = registry.ForTenant("alpha");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*first, *again);  // same ledger, not a new one
  EXPECT_EQ((*first)->budget(), 2.0);

  ASSERT_TRUE(registry.ForTenant("beta").ok());
  auto third = registry.ForTenant("gamma");
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kFailedPrecondition);
  // Existing tenants are still served at the cap.
  EXPECT_TRUE(registry.ForTenant("beta").ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.FindTenant("gamma"), nullptr);
}

TEST(AdmissionControllerTest, BoundsPendingAndReportsPressure) {
  AdmissionController admission({.max_pending = 2, .pressure_window_seconds = 60.0});
  EXPECT_FALSE(admission.UnderPressure());
  AdmissionSlot a = admission.TryAdmit();
  AdmissionSlot b = admission.TryAdmit();
  EXPECT_TRUE(a.held());
  EXPECT_TRUE(b.held());
  AdmissionSlot c = admission.TryAdmit();
  EXPECT_FALSE(c.held());
  EXPECT_EQ(admission.rejected(), 1u);
  EXPECT_TRUE(admission.UnderPressure());  // full now, and rejection stamped

  { AdmissionSlot moved = std::move(a); }  // release via RAII
  EXPECT_EQ(admission.pending(), 1u);
  EXPECT_TRUE(admission.TryAdmit().held());
  EXPECT_EQ(admission.admitted(), 3u);
}

TEST(BatchCoalescerTest, IdenticalKeysShareOneRun) {
  BatchCoalescer coalescer;
  constexpr int kThreads = 6;
  std::atomic<int> runs{0};
  // The run stays in flight until every other caller has joined it, so the
  // batch is exactly the kThreads concurrent callers — no timing window.
  auto runner = [&]() -> Result<core::PublishOutput> {
    runs.fetch_add(1);
    while (coalescer.followers_served() < static_cast<uint64_t>(kThreads - 1)) {
      std::this_thread::yield();
    }
    core::PublishOutput output;
    output.kind = "test";
    output.privacy_after = 0.5;
    return output;
  };

  std::vector<std::optional<BatchCoalescer::Outcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { outcomes[static_cast<size_t>(i)] = coalescer.Run("k", nullptr, runner); });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(runs.load(), 1);
  int leaders = 0;
  for (const auto& maybe_outcome : outcomes) {
    ASSERT_TRUE(maybe_outcome.has_value());
    const BatchCoalescer::Outcome& outcome = *maybe_outcome;
    ASSERT_TRUE(outcome.result.ok());
    EXPECT_EQ(outcome.result->privacy_after, 0.5);
    EXPECT_EQ(outcome.batch_size, static_cast<size_t>(kThreads));
    leaders += outcome.leader ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(coalescer.batches_run(), 1u);
  EXPECT_EQ(coalescer.followers_served(), static_cast<uint64_t>(kThreads - 1));

  // An arrival after the run completed starts a fresh run of its own.
  auto again = coalescer.Run("k", nullptr, runner);
  ASSERT_TRUE(again.result.ok());
  EXPECT_TRUE(again.leader);
  EXPECT_EQ(again.batch_size, 1u);
  EXPECT_EQ(runs.load(), 2);

  // Different keys never share.
  auto other = coalescer.Run("other", nullptr, runner);
  ASSERT_TRUE(other.result.ok());
  EXPECT_TRUE(other.leader);
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(coalescer.followers_served(), static_cast<uint64_t>(kThreads - 1));
}

/// Arms the serve.publish fault point so the first publish run sleeps
/// `hold_ms`: it stays in flight while the test's other requests join it
/// or while Stop drains it. A point's delays are a pure function of (plan,
/// point, index), so a private injector previews the first draw's share of
/// max_delay_ms.
std::unique_ptr<fault::ScopedFaultPlan> HoldFirstPublishRun(double hold_ms) {
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.rate = 0.0;
  plan.point_rates["serve.publish"] = 1.0;
  plan.max_delay_ms = 1.0;
  fault::FaultInjector preview;
  EXPECT_TRUE(preview.Arm(plan).ok());
  plan.max_delay_ms = hold_ms / preview.Evaluate("serve.publish", fault::kMaskDelay).delay_ms;
  return std::make_unique<fault::ScopedFaultPlan>(plan);
}

TEST(ServeAppTest, ConcurrentTenantsAreChargedExactlyOnceEach) {
  ServeOptions options = FastOptions();
  options.tenant_budget = 100.0;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  constexpr int kTenants = 4;
  constexpr int kRequests = 6;
  constexpr double kEpsilon = 0.5;
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int i = 0; i < kRequests; ++i) {
        auto response = PostJson(port, "/v1/dp/aggregate",
                                 AggregateBody(tenant, kEpsilon, i % 2 ? "histogram" : "quantile"));
        if (response.ok() && response->status == 200) ok_responses.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_responses.load(), kTenants * kRequests);

  // Budget-once, no cross-charge: every tenant's ledger shows exactly its
  // own spend.
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    JsonValue audit_body = JsonValue::Object();
    audit_body.Set("tenant", JsonValue::String(tenant));
    auto audit = PostJson(port, "/v1/audit", audit_body);
    ASSERT_TRUE(audit.ok());
    ASSERT_EQ(audit->status, 200);
    auto doc = audit->Json();
    ASSERT_TRUE(doc.ok());
    EXPECT_NEAR(doc->GetNumberOr("spent", -1.0), kRequests * kEpsilon, 1e-9) << tenant;
    EXPECT_EQ(doc->GetNumberOr("rejected", -1.0), 0.0) << tenant;
  }
  (*app)->Stop();
}

TEST(ServeAppTest, CoalescedPublishFansOutOneRunButChargesEveryTenant) {
  // The first run is held in flight long enough for every request to join.
  auto held = HoldFirstPublishRun(/*hold_ms=*/500.0);
  ServeOptions options = FastOptions();
  options.tenant_budget = 10.0;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  constexpr int kTenants = 4;
  constexpr double kEpsilon = 0.5;
  std::vector<double> privacy_after(kTenants, -1.0);
  std::vector<double> batch_sizes(kTenants, 0.0);
  std::atomic<int> coalesced{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      auto response =
          PostJson(port, "/v1/publish", PublishBody("pub" + std::to_string(t), kEpsilon));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status, 200) << response->body;
      auto doc = response->Json();
      ASSERT_TRUE(doc.ok());
      if (doc->GetBoolOr("coalesced", false)) coalesced.fetch_add(1);
      batch_sizes[static_cast<size_t>(t)] = doc->GetNumberOr("batch_size", 0.0);
      const JsonValue* output = doc->Find("output");
      ASSERT_NE(output, nullptr);
      privacy_after[static_cast<size_t>(t)] = output->GetNumberOr("privacy_after", -2.0);
    });
  }
  for (auto& thread : threads) thread.join();

  // One run, everyone else fanned out — and all members saw the identical
  // output (Publish is const + deterministic for equal configs).
  EXPECT_EQ((*app)->coalescer().batches_run(), 1u);
  EXPECT_EQ(coalesced.load(), kTenants - 1);
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(batch_sizes[static_cast<size_t>(t)], static_cast<double>(kTenants));
    EXPECT_EQ(privacy_after[static_cast<size_t>(t)], privacy_after[0]);
  }
  // ...but the ε accounting stayed per-request.
  for (int t = 0; t < kTenants; ++t) {
    obs::PrivacyLedger* ledger = (*app)->tenants().FindTenant("pub" + std::to_string(t));
    ASSERT_NE(ledger, nullptr);
    EXPECT_NEAR(ledger->spent(), kEpsilon, 1e-9);
  }
  (*app)->Stop();
}

TEST(ServeAppTest, ExhaustedTenantGets403WhileOthersServe) {
  ServeOptions options = FastOptions();
  options.tenant_budget = 1.0;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  auto first = PostJson(port, "/v1/dp/aggregate", AggregateBody("spender", 0.7));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, 200);

  auto second = PostJson(port, "/v1/dp/aggregate", AggregateBody("spender", 0.7));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 403);
  auto error = second->Json();
  ASSERT_TRUE(error.ok());
  const JsonValue* detail = error->Find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_NEAR(detail->GetNumberOr("remaining_epsilon", -1.0), 0.3, 1e-9);
  EXPECT_NEAR(detail->GetNumberOr("budget", -1.0), 1.0, 1e-9);

  // The first 0.7 spend against a 1.0 budget already projects exhaustion
  // inside the ledger-burn horizon, so the page alert fires before the
  // first 403 and health reads failing (not merely degraded); other
  // tenants are unaffected.
  auto health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->body, "failing\n");
  auto other = PostJson(port, "/v1/dp/aggregate", AggregateBody("frugal", 0.2));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->status, 200);
  (*app)->Stop();
}

/// Sample lines in a /metrics scrape: every non-empty line that is not a
/// HELP/TYPE comment, the count `ppdp_stat prom --max_series` bounds.
size_t MetricSeries(int port) {
  auto metrics = Get(port, "/metrics");
  EXPECT_TRUE(metrics.ok());
  if (!metrics.ok()) return 0;
  std::istringstream lines(metrics->body);
  size_t series = 0;
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] != '#') ++series;
  }
  return series;
}

TEST(ServeAppTest, UnregisteredTenantsMintNoMetricSeries) {
  ServeOptions options = FastOptions();
  options.max_tenants = 1;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();
  auto audit = [port](const std::string& tenant) {
    JsonValue body = JsonValue::Object();
    body.Set("tenant", JsonValue::String(tenant));
    return PostJson(port, "/v1/audit", body);
  };

  // One of each answer first, so every series the paths themselves export
  // exists before the count: the registered tenant's 200s, an unknown
  // tenant's 404 and a 403 from the full registry.
  ASSERT_EQ(PostJson(port, "/v1/dp/aggregate", AggregateBody("owner", 0.1))->status, 200);
  ASSERT_EQ(audit("owner")->status, 200);
  ASSERT_EQ(audit("ghost")->status, 404);
  ASSERT_EQ(PostJson(port, "/v1/dp/aggregate", AggregateBody("squatter", 0.1))->status, 403);
  const size_t before = MetricSeries(port);

  for (int i = 0; i < 8; ++i) {
    const std::string name = "phantom" + std::to_string(i);
    EXPECT_EQ(audit(name)->status, 404);
    EXPECT_EQ(PostJson(port, "/v1/dp/aggregate", AggregateBody(name, 0.1))->status, 403);
  }
  EXPECT_EQ(MetricSeries(port), before) << "names nobody registered grew /metrics";

  // The registered tenant still has its series.
  auto metrics = Get(port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("serve_tenant_owner_requests"), std::string::npos);
  EXPECT_EQ(metrics->body.find("serve_tenant_phantom"), std::string::npos);
  (*app)->Stop();
}

TEST(ServeAppTest, FullAdmissionQueueGets429AndDegradesHealth) {
  ServeOptions options = FastOptions();
  options.max_pending = 2;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  // Hold every slot so the next request is deterministically refused.
  AdmissionSlot a = (*app)->admission().TryAdmit();
  AdmissionSlot b = (*app)->admission().TryAdmit();
  ASSERT_TRUE(a.held() && b.held());

  auto refused = PostJson(port, "/v1/dp/aggregate", AggregateBody("queued", 0.1));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 429);
  auto error = refused->Json();
  ASSERT_TRUE(error.ok());
  const JsonValue* detail = error->Find("detail");
  ASSERT_NE(detail, nullptr);
  EXPECT_EQ(detail->GetNumberOr("max_pending", -1.0), 2.0);
  // No charge happened: the tenant ledger was never created.
  EXPECT_EQ((*app)->tenants().FindTenant("queued"), nullptr);

  auto health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->body, "degraded\n");

  { AdmissionSlot drop_a = std::move(a), drop_b = std::move(b); }
  auto admitted = PostJson(port, "/v1/dp/aggregate", AggregateBody("queued", 0.1));
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->status, 200);
  (*app)->Stop();
}

TEST(ServeAppTest, StopDrainsInFlightRequestsThenRefusesNewOnes) {
  // A delayed publish run keeps the request in flight while Stop begins.
  auto held = HoldFirstPublishRun(/*hold_ms=*/300.0);
  auto app = ServeApp::Create(FastOptions());
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  std::atomic<int> inflight_status{-1};
  std::thread client([&] {
    auto response = PostJson(port, "/v1/publish", PublishBody("drainer", 0.5), /*timeout=*/20.0);
    inflight_status.store(response.ok() ? response->status : -2);
  });
  // Wait until the request is actually in flight.
  for (int i = 0; i < 1000 && (*app)->inflight() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT((*app)->inflight(), 0u);

  (*app)->Stop();  // drains: the held publish still completes with 200
  client.join();
  EXPECT_EQ(inflight_status.load(), 200);
  EXPECT_TRUE((*app)->draining());
  EXPECT_EQ((*app)->inflight(), 0u);

  // The socket is down after Stop; a new request cannot even connect.
  auto after = PostJson(port, "/v1/dp/aggregate", AggregateBody("late", 0.1));
  EXPECT_FALSE(after.ok());
}

TEST(ServeAppTest, AggregateOpsValidateInputs) {
  ServeOptions options = FastOptions();
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  auto histogram = PostJson(port, "/v1/dp/aggregate", AggregateBody("ops", 0.2, "histogram"));
  ASSERT_TRUE(histogram.ok());
  ASSERT_EQ(histogram->status, 200) << histogram->body;
  auto doc = histogram->Json();
  ASSERT_TRUE(doc.ok());
  const JsonValue* result = doc->Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->is_array());
  EXPECT_GT(result->size(), 0u);

  JsonValue quantile_body = AggregateBody("ops", 0.2, "quantile");
  quantile_body.Set("q", JsonValue::Number(0.9));
  auto quantile = PostJson(port, "/v1/dp/aggregate", quantile_body);
  ASSERT_TRUE(quantile.ok());
  EXPECT_EQ(quantile->status, 200) << quantile->body;

  auto unknown = PostJson(port, "/v1/dp/aggregate", AggregateBody("ops", 0.2, "median"));
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 400);

  auto bad_json = HttpRequest(port, "POST", "/v1/dp/aggregate", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);

  auto bad_tenant = PostJson(port, "/v1/dp/aggregate", AggregateBody("bad tenant!", 0.2));
  ASSERT_TRUE(bad_tenant.ok());
  EXPECT_EQ(bad_tenant->status, 400);

  JsonValue unknown_audit = JsonValue::Object();
  unknown_audit.Set("tenant", JsonValue::String("never-seen"));
  auto audit = PostJson(port, "/v1/audit", unknown_audit);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->status, 404);

  auto bad_kind = PostJson(port, "/v1/publish", PublishBody("ops", 0.2, "mystery"));
  ASSERT_TRUE(bad_kind.ok());
  EXPECT_EQ(bad_kind->status, 400);
  (*app)->Stop();
}

TEST(ServeAppTest, StatuszCarriesServeSection) {
  ServeOptions options = FastOptions();
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  ASSERT_TRUE(PostJson(port, "/v1/dp/aggregate", AggregateBody("statusz", 0.1)).ok());
  auto statusz = Get(port, "/statusz");
  ASSERT_TRUE(statusz.ok());
  ASSERT_EQ(statusz->status, 200);
  auto doc = statusz->Json();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  JsonValue section = (*app)->StatuszSection();
  EXPECT_GE(section.GetNumberOr("tenants", -1.0), 1.0);
  EXPECT_EQ(section.GetNumberOr("queue_max", -1.0),
            static_cast<double>((*app)->admission().max_pending()));
  EXPECT_FALSE(section.GetBoolOr("draining", true));
  (*app)->Stop();
}

std::string TempWalPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/serve_wal_" + name + "_" +
                     std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".wal";
  std::remove(path.c_str());
  return path;
}

double AuditedSpent(int port, const std::string& tenant) {
  JsonValue body = JsonValue::Object();
  body.Set("tenant", JsonValue::String(tenant));
  auto audit = PostJson(port, "/v1/audit", body);
  if (!audit.ok() || audit->status != 200) return -1.0;
  auto doc = audit->Json();
  return doc.ok() ? doc->GetNumberOr("spent", -1.0) : -1.0;
}

/// The tenant's /v1/audit document (Null when the audit fails).
JsonValue AuditDoc(int port, const std::string& tenant) {
  JsonValue body = JsonValue::Object();
  body.Set("tenant", JsonValue::String(tenant));
  auto audit = PostJson(port, "/v1/audit", body);
  if (!audit.ok() || audit->status != 200) return JsonValue::Null();
  auto doc = audit->Json();
  return doc.ok() ? *doc : JsonValue::Null();
}

TEST(ServeAppTest, InvalidAggregateInputsAreRefusedBeforeAnyCharge) {
  ServeOptions options = FastOptions();
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();
  auto first = PostJson(port, "/v1/dp/aggregate", AggregateBody("strict", 0.2));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  const JsonValue before = AuditDoc(port, "strict");
  ASSERT_FALSE(before.is_null());

  std::vector<JsonValue> bad_bodies;
  bad_bodies.push_back(AggregateBody("strict", 0.2, "median"));
  for (double q : {-0.1, 1.5}) {
    bad_bodies.push_back(AggregateBody("strict", 0.2, "quantile"));
    bad_bodies.back().Set("q", JsonValue::Number(q));
  }
  for (auto [lo, hi] : {std::pair{-1.0, 2.0}, std::pair{3.0, 2.0}, std::pair{0.0, 1e6}}) {
    bad_bodies.push_back(AggregateBody("strict", 0.2, "range_count"));
    bad_bodies.back().Set("lo", JsonValue::Number(lo));
    bad_bodies.back().Set("hi", JsonValue::Number(hi));
  }
  for (const JsonValue& body : bad_bodies) {
    auto response = PostJson(port, "/v1/dp/aggregate", body);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 400) << body.Dump() << " -> " << response->body;
    // Same balance, same audit trail: the refused request was never charged.
    const JsonValue after = AuditDoc(port, "strict");
    ASSERT_FALSE(after.is_null());
    EXPECT_EQ(after.GetNumberOr("remaining", -1.0), before.GetNumberOr("remaining", -2.0))
        << body.Dump();
    EXPECT_EQ(after.Find("entries")->Dump(), before.Find("entries")->Dump()) << body.Dump();
  }
  (*app)->Stop();
}

TEST(ServeAppWalTest, BudgetSurvivesRestart) {
  const std::string wal_path = TempWalPath("restart");
  ServeOptions options = FastOptions();
  options.tenant_budget = 1.0;
  options.ledger_wal = wal_path;

  // First lifetime: spend 0.8 of the 1.0 budget.
  {
    auto app = ServeApp::Create(options);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    ASSERT_TRUE((*app)->Start().ok());
    const int port = (*app)->port();
    for (int i = 0; i < 2; ++i) {
      auto response = PostJson(port, "/v1/dp/aggregate", AggregateBody("acme", 0.4));
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->status, 200) << response->body;
    }
    EXPECT_DOUBLE_EQ(AuditedSpent(port, "acme"), 0.8);
    (*app)->Stop();
  }

  // Second lifetime against the same WAL: the 0.8 is already spent, so a
  // 0.4 request must be refused and a 0.2 one admitted — remaining ε is
  // continuous across the restart.
  {
    auto app = ServeApp::Create(options);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    JsonValue summary = (*app)->StartupSummary();
    const JsonValue* recovered = summary.Find("recovered_epsilon");
    ASSERT_NE(recovered, nullptr);
    EXPECT_DOUBLE_EQ(recovered->GetNumberOr("acme", -1.0), 0.8);

    ASSERT_TRUE((*app)->Start().ok());
    const int port = (*app)->port();
    EXPECT_DOUBLE_EQ(AuditedSpent(port, "acme"), 0.8);

    auto over = PostJson(port, "/v1/dp/aggregate", AggregateBody("acme", 0.4));
    ASSERT_TRUE(over.ok());
    EXPECT_EQ(over->status, 403) << over->body;
    auto fits = PostJson(port, "/v1/dp/aggregate", AggregateBody("acme", 0.2));
    ASSERT_TRUE(fits.ok());
    EXPECT_EQ(fits->status, 200) << fits->body;
    EXPECT_DOUBLE_EQ(AuditedSpent(port, "acme"), 1.0);
    (*app)->Stop();
  }

  // Across both lifetimes no tenant ever exceeded its ε: the log's replay
  // total is the ground truth.
  auto recovery = obs::LedgerWal::Scan(wal_path);
  ASSERT_TRUE(recovery.ok());
  double total = 0.0;
  for (const auto& spend : recovery->spends) total += spend.total_epsilon();
  EXPECT_LE(total, options.tenant_budget + 1e-9);
  std::remove(wal_path.c_str());
}

TEST(ServeAppWalTest, KillMidTrafficNeverUndercounts) {
  const std::string wal_path = TempWalPath("kill");
  ServeOptions options = FastOptions();
  options.tenant_budget = 100.0;
  options.ledger_wal = wal_path;

  // First lifetime: concurrent traffic, then tear the app down abruptly
  // (destructor path, no clean Stop) mid-lifetime. Count what clients saw
  // admitted.
  std::atomic<int> admitted{0};
  {
    auto app = ServeApp::Create(options);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    ASSERT_TRUE((*app)->Start().ok());
    const int port = (*app)->port();
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        const std::string tenant = "killed" + std::to_string(t);
        for (int i = 0; i < 4; ++i) {
          auto response = PostJson(port, "/v1/dp/aggregate", AggregateBody(tenant, 0.25));
          if (response.ok() && response->status == 200) admitted.fetch_add(1);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  // Charge-ahead: every admitted spend (and possibly a few in-flight ones)
  // is on disk — recovery can over-count but never under-count.
  auto recovery = obs::LedgerWal::Scan(wal_path);
  ASSERT_TRUE(recovery.ok());
  double replayed = 0.0;
  for (const auto& spend : recovery->spends) replayed += spend.total_epsilon();
  EXPECT_GE(replayed, 0.25 * admitted.load() - 1e-9);

  // Second lifetime picks the replayed total up exactly.
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  double audited = 0.0;
  for (int t = 0; t < 3; ++t) {
    double spent = AuditedSpent((*app)->port(), "killed" + std::to_string(t));
    if (spent > 0.0) audited += spent;
  }
  EXPECT_NEAR(audited, replayed, 1e-9);
  (*app)->Stop();
  std::remove(wal_path.c_str());
}

TEST(ServeAppWalTest, CorruptTailRecoversPrefixAndKeepsServing) {
  const std::string wal_path = TempWalPath("corrupt");
  ServeOptions options = FastOptions();
  options.tenant_budget = 2.0;
  options.ledger_wal = wal_path;
  {
    auto app = ServeApp::Create(options);
    ASSERT_TRUE(app.ok()) << app.status().ToString();
    ASSERT_TRUE((*app)->Start().ok());
    for (int i = 0; i < 3; ++i) {
      auto response =
          PostJson((*app)->port(), "/v1/dp/aggregate", AggregateBody("corrupted", 0.5));
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->status, 200);
    }
    (*app)->Stop();
  }

  // Flip a bit inside the last record's payload.
  {
    std::fstream file(wal_path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekp(size - 3);
    char byte = 0;
    file.seekg(size - 3);
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(size - 3);
    file.put(byte);
  }

  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  // The corrupt last record is truncated; the intact prefix (2 spends)
  // replays, and the daemon keeps serving on the repaired log.
  JsonValue summary = (*app)->StartupSummary();
  const JsonValue* recovered = summary.Find("recovered_epsilon");
  ASSERT_NE(recovered, nullptr);
  EXPECT_DOUBLE_EQ(recovered->GetNumberOr("corrupted", -1.0), 1.0);
  ASSERT_TRUE((*app)->Start().ok());
  auto response = PostJson((*app)->port(), "/v1/dp/aggregate", AggregateBody("corrupted", 0.5));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200) << response->body;
  (*app)->Stop();
  std::remove(wal_path.c_str());
}

TEST(ServeAppWalTest, EmptyWalStartsFresh) {
  const std::string wal_path = TempWalPath("empty");
  ServeOptions options = FastOptions();
  options.ledger_wal = wal_path;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  JsonValue summary = (*app)->StartupSummary();
  const JsonValue* recovered = summary.Find("recovered_epsilon");
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(summary.GetStringOr("ledger_wal", "").size() > 0);
  ASSERT_TRUE((*app)->Start().ok());
  auto response = PostJson((*app)->port(), "/v1/dp/aggregate", AggregateBody("fresh", 0.1));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  (*app)->Stop();
  std::remove(wal_path.c_str());
}

TEST(ServeAppWalTest, InjectedSpendFaultGets503WithoutChargeOrWalCount) {
  const std::string wal_path = TempWalPath("dp_spend_fault");
  ServeOptions options = FastOptions();
  options.ledger_wal = wal_path;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();
  auto first = PostJson(port, "/v1/dp/aggregate", AggregateBody("faulty", 0.1));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200) << first->body;
  const double spent = AuditedSpent(port, "faulty");
  obs::Counter& wal_unavailable = obs::MetricsRegistry::Global().counter("serve.wal.unavailable");
  const uint64_t wal_unavailable_before = wal_unavailable.value();
  {
    fault::FaultPlan plan;
    plan.point_rates["dp.spend"] = 1.0;
    fault::ScopedFaultPlan armed(plan);
    auto publish = PostJson(port, "/v1/publish", PublishBody("faulty", 0.2, "social"));
    ASSERT_TRUE(publish.ok());
    EXPECT_EQ(publish->status, 503) << publish->body;
    auto aggregate = PostJson(port, "/v1/dp/aggregate", AggregateBody("faulty", 0.2));
    ASSERT_TRUE(aggregate.ok());
    EXPECT_EQ(aggregate->status, 503) << aggregate->body;
  }
  // Refused before the WAL record: nothing charged, logged, or blamed on the WAL.
  EXPECT_EQ(AuditedSpent(port, "faulty"), spent);
  EXPECT_EQ(wal_unavailable.value(), wal_unavailable_before);
  auto after = PostJson(port, "/v1/dp/aggregate", AggregateBody("faulty", 0.1));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200) << after->body;
  (*app)->Stop();

  auto recovery = obs::LedgerWal::Scan(wal_path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->spends.size(), 2u);
  std::remove(wal_path.c_str());
}

TEST(ServeAppTest, DeadlineExceededWhileQueuedGets504) {
  ServeOptions options = FastOptions();
  options.max_pending = 1;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  // Hold the only slot: a deadline-carrying request waits, then times out.
  AdmissionSlot slot = (*app)->admission().TryAdmit();
  ASSERT_TRUE(slot.held());

  JsonValue body = AggregateBody("deadlined", 0.1);
  body.Set("deadline_ms", JsonValue::Number(150));
  const auto started = std::chrono::steady_clock::now();
  auto response = PostJson(port, "/v1/dp/aggregate", body);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 504) << response->body;
  auto error = response->Json();
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->GetStringOr("schema", ""), "ppdp.serve.error.v1");
  // It actually waited for the deadline rather than failing fast...
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 140);
  // ...and no charge happened.
  EXPECT_EQ((*app)->tenants().FindTenant("deadlined"), nullptr);

  // With the slot free the same deadline is comfortably met.
  { AdmissionSlot release = std::move(slot); }
  auto admitted = PostJson(port, "/v1/dp/aggregate", body);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->status, 200) << admitted->body;
  (*app)->Stop();
}

constexpr char kValidTraceparent[] = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";

TEST(RequestTraceTest, ParseTraceparentAcceptsOnlyWellFormedHeaders) {
  std::string trace_id;
  ASSERT_TRUE(ParseTraceparent(kValidTraceparent, &trace_id));
  EXPECT_EQ(trace_id, "0af7651916cd43dd8448eb211c80319c");

  EXPECT_FALSE(ParseTraceparent("", &trace_id));
  EXPECT_FALSE(ParseTraceparent("garbage", &trace_id));
  EXPECT_FALSE(ParseTraceparent("00-abc-def-01", &trace_id));  // too short
  EXPECT_FALSE(ParseTraceparent(std::string(kValidTraceparent) + "ff", &trace_id));
  // Wrong version, uppercase hex, misplaced dashes, all-zero ids.
  EXPECT_FALSE(
      ParseTraceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", &trace_id));
  EXPECT_FALSE(
      ParseTraceparent("00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", &trace_id));
  EXPECT_FALSE(
      ParseTraceparent("00-0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331-01", &trace_id));
  EXPECT_FALSE(
      ParseTraceparent("00-00000000000000000000000000000000-b7ad6b7169203331-01", &trace_id));
  EXPECT_FALSE(
      ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", &trace_id));

  // Generated ids format into parseable headers.
  const std::string generated = GenerateTraceId();
  std::string round_tripped;
  ASSERT_TRUE(ParseTraceparent(FormatTraceparent(generated, GenerateSpanId()), &round_tripped));
  EXPECT_EQ(round_tripped, generated);
  EXPECT_NE(GenerateTraceId(), generated);  // ids are unique within a process
}

std::string TempAccessLogPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/serve_access_" + name + "_" +
                     std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".jsonl";
  std::remove(path.c_str());
  return path;
}

std::vector<JsonValue> ReadAccessLog(const std::string& path) {
  std::vector<JsonValue> records;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    auto doc = JsonValue::Parse(line);
    EXPECT_TRUE(doc.ok()) << line;
    if (!doc.ok()) continue;
    // Every line the daemon writes passes the validator `ppdp_stat` uses.
    const Status valid = ValidateAccessRecord(*doc);
    EXPECT_TRUE(valid.ok()) << valid.ToString() << ": " << line;
    records.push_back(std::move(*doc));
  }
  return records;
}

TEST(ServeAppTraceTest, MalformedTraceparentIsIgnoredNeverRejected) {
  auto app = ServeApp::Create(FastOptions());
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  const std::vector<std::string> malformed = {
      "garbage",
      "00-abc-def-01",
      "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
  };
  for (const std::string& header : malformed) {
    auto response = PostJson(port, "/v1/dp/aggregate", AggregateBody("tracer", 0.01), 10.0,
                             {{"traceparent", header}});
    ASSERT_TRUE(response.ok()) << header;
    EXPECT_EQ(response->status, 200) << "malformed traceparent must not fail the request: "
                                     << header;
    // A fresh, well-formed id was issued and echoed.
    std::string echoed;
    ASSERT_TRUE(ParseTraceparent(response->HeaderOr("traceparent", ""), &echoed)) << header;
    EXPECT_NE("00-" + echoed, header.substr(0, 35));
    // The response body carries the same id.
    auto doc = response->Json();
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->GetStringOr("request_id", ""), echoed);
  }

  // A valid header's trace id is adopted end to end.
  auto response = PostJson(port, "/v1/dp/aggregate", AggregateBody("tracer", 0.01), 10.0,
                           {{"traceparent", kValidTraceparent}});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  std::string echoed;
  ASSERT_TRUE(ParseTraceparent(response->HeaderOr("traceparent", ""), &echoed));
  EXPECT_EQ(echoed, "0af7651916cd43dd8448eb211c80319c");
  (*app)->Stop();
}

TEST(ServeAppTraceTest, AccessLogRecordsEveryRequestOnceWithBoundedStageSums) {
  const std::string log_path = TempAccessLogPath("once");
  ServeOptions options = FastOptions();
  options.access_log = log_path;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  size_t sent = 0;
  auto expect_status = [&](Result<ClientResponse> response, int status) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, status) << response->body;
    ++sent;
  };
  expect_status(PostJson(port, "/v1/dp/aggregate", AggregateBody("alpha", 0.1)), 200);
  expect_status(PostJson(port, "/v1/dp/aggregate", AggregateBody("beta", 0.1)), 200);
  expect_status(PostJson(port, "/v1/publish", PublishBody("alpha", 0.2)), 200);
  JsonValue audit_body = JsonValue::Object();
  audit_body.Set("tenant", JsonValue::String("alpha"));
  expect_status(PostJson(port, "/v1/audit", audit_body), 200);
  expect_status(PostJson(port, "/v1/publish", PublishBody("alpha", 0.2, "mystery")), 400);
  expect_status(HttpRequest(port, "POST", "/v1/dp/aggregate", "{not json"), 400);
  // Introspection endpoints are not request-traced and must not be logged.
  ASSERT_TRUE(Get(port, "/metrics").ok());
  (*app)->Stop();

  const std::vector<JsonValue> records = ReadAccessLog(log_path);
  ASSERT_EQ(records.size(), sent);
  EXPECT_EQ((*app)->observer().completed_total(), sent);

  std::set<std::string> ids;
  std::map<int, int> by_status;
  for (const JsonValue& record : records) {
    EXPECT_EQ(record.GetStringOr("schema", ""), "ppdp.access.v1");
    const std::string id = record.GetStringOr("request_id", "");
    EXPECT_EQ(id.size(), 32u);
    ids.insert(id);
    ++by_status[static_cast<int>(record.GetNumberOr("status", 0.0))];

    // The tentpole invariant: stages partition a subset of the request's
    // wall time, so their sum can never exceed the logged total.
    const JsonValue* stages = record.Find("stages");
    ASSERT_NE(stages, nullptr);
    double stage_sum = 0.0;
    for (const auto& [name, micros] : stages->members()) {
      EXPECT_TRUE(micros.is_number()) << name;
      EXPECT_GE(micros.as_number(), 0.0) << name;
      stage_sum += micros.as_number();
    }
    EXPECT_LE(stage_sum, record.GetNumberOr("total_micros", 0.0) + 0.5)
        << record.GetStringOr("endpoint", "");
    // ε is only logged when actually charged.
    if (record.GetNumberOr("status", 0.0) != 200.0) {
      EXPECT_EQ(record.GetNumberOr("epsilon", -1.0), 0.0);
    }
  }
  EXPECT_EQ(ids.size(), sent);  // every request exactly once
  EXPECT_EQ(by_status[200], 4);
  EXPECT_EQ(by_status[400], 2);
  std::remove(log_path.c_str());
}

TEST(ServeAppTraceTest, WaitersRecordTheLeadersRequestId) {
  const std::string log_path = TempAccessLogPath("coalesce");
  auto held = HoldFirstPublishRun(/*hold_ms=*/500.0);
  ServeOptions options = FastOptions();
  options.access_log = log_path;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  constexpr int kTenants = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      auto response =
          PostJson(port, "/v1/publish", PublishBody("join" + std::to_string(t), 0.1));
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->status, 200) << response->body;
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ((*app)->coalescer().batches_run(), 1u);
  (*app)->Stop();

  std::string leader_id;
  std::vector<std::string> waiter_leader_ids;
  for (const JsonValue& record : ReadAccessLog(log_path)) {
    const std::string role = record.GetStringOr("coalesce", "");
    if (role == "leader") {
      EXPECT_TRUE(leader_id.empty()) << "one batch has exactly one leader";
      leader_id = record.GetStringOr("request_id", "");
      // The leader ran the publish at once, without waiting.
      const JsonValue* stages = record.Find("stages");
      ASSERT_NE(stages, nullptr);
      EXPECT_FALSE(stages->Has("serve.coalesce.wait"));
      EXPECT_TRUE(stages->Has("serve.publish"));
    } else if (role == "waiter") {
      waiter_leader_ids.push_back(record.GetStringOr("leader_request_id", ""));
      const JsonValue* stages = record.Find("stages");
      ASSERT_NE(stages, nullptr);
      EXPECT_TRUE(stages->Has("serve.coalesce.wait"));
      EXPECT_FALSE(stages->Has("serve.publish"));  // the leader ran it, not us
    }
  }
  ASSERT_EQ(waiter_leader_ids.size(), static_cast<size_t>(kTenants - 1));
  ASSERT_FALSE(leader_id.empty());
  for (const std::string& id : waiter_leader_ids) EXPECT_EQ(id, leader_id);
  std::remove(log_path.c_str());
}

TEST(ServeAppTraceTest, RequestzListsCompletedRequestsAndFilters) {
  auto app = ServeApp::Create(FastOptions());
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  ASSERT_TRUE(PostJson(port, "/v1/dp/aggregate", AggregateBody("watched", 0.1)).ok());
  ASSERT_TRUE(PostJson(port, "/v1/dp/aggregate", AggregateBody("other", 0.1)).ok());

  auto all = Get(port, "/requestz");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->status, 200);
  auto doc = all->Json();
  ASSERT_TRUE(doc.ok()) << all->body;
  EXPECT_EQ(doc->GetStringOr("schema", ""), "ppdp.requestz.v1");
  const JsonValue* completed = doc->Find("completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->size(), 2u);
  EXPECT_EQ(doc->GetNumberOr("completed_total", -1.0), 2.0);

  auto filtered = Get(port, "/requestz?tenant=watched");
  ASSERT_TRUE(filtered.ok());
  auto filtered_doc = filtered->Json();
  ASSERT_TRUE(filtered_doc.ok());
  const JsonValue* filtered_completed = filtered_doc->Find("completed");
  ASSERT_NE(filtered_completed, nullptr);
  ASSERT_EQ(filtered_completed->size(), 1u);
  EXPECT_EQ(filtered_completed->at(0).GetStringOr("tenant", ""), "watched");

  // A prohibitive min_ms filter leaves nothing.
  auto slow_only = Get(port, "/requestz?min_ms=3600000");
  ASSERT_TRUE(slow_only.ok());
  auto slow_doc = slow_only->Json();
  ASSERT_TRUE(slow_doc.ok());
  EXPECT_EQ(slow_doc->Find("completed")->size(), 0u);
  (*app)->Stop();
}

TEST(ServeAppTraceTest, SlowFaultInjectedPublishIsCapturedInFlightRecorder) {
  // Deterministically delay the leader's publish run via the serve.publish
  // fault point, with a slow threshold the delayed request must cross.
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.rate = 0.0;
  plan.point_rates["serve.publish"] = 1.0;
  plan.max_delay_ms = 25.0;
  fault::ScopedFaultPlan armed(plan);

  ServeOptions options = FastOptions();
  options.slow_request_ms = 1.0;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());

  auto response = PostJson((*app)->port(), "/v1/publish", PublishBody("slowpoke", 0.1));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto doc = response->Json();
  ASSERT_TRUE(doc.ok());
  const std::string request_id = doc->GetStringOr("request_id", "");
  ASSERT_EQ(request_id.size(), 32u);
  (*app)->Stop();

  // The FlightRecorder ring holds the full access record, request id
  // included, under the "request" category.
  bool captured = false;
  for (const obs::FlightEvent& event : obs::FlightRecorder::Global().Snapshot()) {
    if (event.category != "request") continue;
    if (event.message.find(request_id) == std::string::npos) continue;
    captured = true;
    EXPECT_EQ(event.severity, "WARN");  // slow but successful
    auto record = JsonValue::Parse(event.message);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->GetStringOr("schema", ""), "ppdp.access.v1");
    EXPECT_EQ(record->GetStringOr("tenant", ""), "slowpoke");
    const JsonValue* stages = record->Find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_TRUE(stages->Has("serve.publish"));
  }
  EXPECT_TRUE(captured) << "slow request " << request_id << " missing from the flight ring";
}

TEST(ServeAppSloTest, LedgerBurnPageFiresBeforeTheFirstRejection) {
  const std::string alert_log =
      ::testing::TempDir() + "/serve_slo_alerts_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".jsonl";
  std::remove(alert_log.c_str());

  ServeOptions options = FastOptions();
  options.tenant_budget = 1.0;
  options.slo_eval_period_seconds = 0.0;  // evaluate on every request
  options.alert_log = alert_log;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  // One large spend: the tenant still has budget (no 403 anywhere yet),
  // but the burn rate projects exhaustion well inside the 600 s horizon.
  auto first = PostJson(port, "/v1/dp/aggregate", AggregateBody("burner", 0.7));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 200);

  auto alertz = Get(port, "/alertz");
  ASSERT_TRUE(alertz.ok());
  ASSERT_EQ(alertz->status, 200);
  auto doc = alertz->Json();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetStringOr("schema", ""), "ppdp.alertz.v1");
  bool firing_for_burner = false;
  const JsonValue* rules = doc->Find("rules");
  ASSERT_NE(rules, nullptr);
  for (size_t r = 0; r < rules->size(); ++r) {
    if (rules->at(r).GetStringOr("rule", "") != "ledger_burn") continue;
    const JsonValue* instances = rules->at(r).Find("instances");
    ASSERT_NE(instances, nullptr);
    for (size_t i = 0; i < instances->size(); ++i) {
      if (instances->at(i).GetStringOr("tenant", "") == "burner" &&
          instances->at(i).GetStringOr("state", "") == "firing") {
        firing_for_burner = true;
      }
    }
  }
  EXPECT_TRUE(firing_for_burner) << doc->Dump();

  // The firing page alert fails health before any request was rejected.
  auto health = Get(port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->body, "failing\n");

  // Now exhaust: the 403 arrives after the alert, never before.
  auto second = PostJson(port, "/v1/dp/aggregate", AggregateBody("burner", 0.7));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 403);
  (*app)->Stop();

  // Every transition landed in the alert log as a valid record, in order.
  std::ifstream file(alert_log);
  ASSERT_TRUE(file.good());
  std::string line;
  size_t burner_transitions = 0;
  while (std::getline(file, line)) {
    auto record = JsonValue::Parse(line);
    ASSERT_TRUE(record.ok()) << line;
    ASSERT_TRUE(obs::ValidateAlertLogRecord(*record).ok()) << line;
    if (record->GetStringOr("tenant", "") == "burner") ++burner_transitions;
  }
  EXPECT_GE(burner_transitions, 2u);  // pending then firing, at least
  std::remove(alert_log.c_str());
}

TEST(ServeAppSloTest, PlainHealthzStaysByteIdenticalAndVerboseNamesConditions) {
  auto app = ServeApp::Create(FastOptions());
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  // The scrape contract existing monitors rely on: exactly "ok\n".
  auto plain = Get(port, "/healthz");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->status, 200);
  EXPECT_EQ(plain->body, "ok\n");

  auto verbose = Get(port, "/healthz?verbose=1");
  ASSERT_TRUE(verbose.ok());
  ASSERT_EQ(verbose->status, 200);
  auto doc = verbose->Json();
  ASSERT_TRUE(doc.ok()) << verbose->body;
  EXPECT_EQ(doc->GetStringOr("schema", ""), "ppdp.healthz.v1");
  EXPECT_EQ(doc->GetStringOr("health", ""), "ok");
  const JsonValue* conditions = doc->Find("conditions");
  ASSERT_NE(conditions, nullptr);
  EXPECT_TRUE(conditions->is_array());

  // Drive one degrading condition (a 403 rejection) and re-read: the
  // verbose document must name it.
  ASSERT_EQ(PostJson(port, "/v1/dp/aggregate", AggregateBody("waster", 3.9))->status, 200);
  auto rejected = PostJson(port, "/v1/dp/aggregate", AggregateBody("waster", 3.9));
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->status, 403);

  verbose = Get(port, "/healthz?verbose=1");
  ASSERT_TRUE(verbose.ok());
  doc = verbose->Json();
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->GetStringOr("health", ""), "ok");
  conditions = doc->Find("conditions");
  ASSERT_NE(conditions, nullptr);
  bool named = false;
  for (size_t i = 0; i < conditions->size(); ++i) {
    const std::string name = conditions->at(i).GetStringOr("name", "");
    if (name.find("ledger") != std::string::npos ||
        name.find("alert") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << verbose->body;
  (*app)->Stop();
}

TEST(ServeAppSloTest, SlozAndMetricsStayWellFormedWhileAlertsFire) {
  ServeOptions options = FastOptions();
  options.tenant_budget = 1.0;
  options.slo_eval_period_seconds = 0.0;
  auto app = ServeApp::Create(options);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  ASSERT_TRUE((*app)->Start().ok());
  const int port = (*app)->port();

  ASSERT_EQ(PostJson(port, "/v1/dp/aggregate", AggregateBody("hot", 0.7))->status, 200);

  auto sloz = Get(port, "/sloz");
  ASSERT_TRUE(sloz.ok());
  ASSERT_EQ(sloz->status, 200);
  auto doc = sloz->Json();
  ASSERT_TRUE(doc.ok()) << sloz->body;
  EXPECT_EQ(doc->GetStringOr("schema", ""), "ppdp.sloz.v1");
  const JsonValue* slos = doc->Find("slos");
  ASSERT_NE(slos, nullptr);
  ASSERT_TRUE(slos->is_array());
  bool availability_met = false;
  for (size_t i = 0; i < slos->size(); ++i) {
    if (slos->at(i).GetStringOr("rule", "") == "availability" &&
        slos->at(i).GetBoolOr("met", false)) {
      availability_met = true;  // all requests succeeded
    }
  }
  EXPECT_TRUE(availability_met) << sloz->body;

  // The alert-state gauges minted by firing transitions must keep the
  // exposition text valid.
  auto metrics = Get(port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_TRUE(obs::ValidatePrometheusText(metrics->body).ok());
  EXPECT_NE(metrics->body.find("slo_"), std::string::npos) << "no slo series exported";
  (*app)->Stop();
}

}  // namespace
}  // namespace ppdp::serve
