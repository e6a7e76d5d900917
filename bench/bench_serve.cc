// Serving benchmark: drives an in-process ppdp_serve daemon (ephemeral
// loopback port) with closed-loop client threads issuing the mixed traffic
// a publishing service sees — mostly /v1/dp/aggregate and /v1/audit, with
// ~--publish_pct% /v1/publish runs that exercise the coalescer — and
// reports client-observed request latency (p50/p95/p99 exact: type 7 over
// every client-timed request) plus throughput.
//
//   $ ./bench_serve [--clients 8] [--requests 2048] [--publish_pct 12]
//                   [--min_qps 0] [--scale 0.25] [--genome_snps 300]
//                   [--deadline_ms 0] [--access_log PATH]
//                   [--slo_config slo.json]
//
// --deadline_ms > 0 stamps every request with a client deadline the server
// honors while queued for admission: expired requests come back 504 and are
// counted in the rejected class (bench.serve.timeout_504), alongside the
// 403/429 breakdown, in the ppdp.bench.v1 report counters.
//
// --min_qps > 0 turns the run into a gate: exit 1 when achieved QPS falls
// below it (what the CI perf job pins). The BENCH_serve.json run report
// carries the serve.client.seconds histogram for `ppdp_stat report` diffing.
//
// Every request carries a client-generated W3C traceparent header; the
// server must echo a response traceparent with the same trace id (echo
// mismatches fail the run). --access_log PATH additionally makes the
// in-process daemon write its ppdp.access.v1 JSONL log (PATH and PATH.1 are
// emptied first), which the bench reads back at the end into a server-side
// per-stage latency table (serve_stage_breakdown) — the same numbers
// `ppdp_stat access` aggregates. The run fails unless the log holds exactly
// one ppdp.access.v1 record per request sent.
//
// The in-process daemon always runs its SLO engine (--slo_config loads a
// ppdp.slo.v1 rule file; defaults otherwise). After the load completes the
// bench queries the live attainment, prints a serve_slo table, and records
// the rows into the run report's "slos" stanza — `ppdp_stat report` prints
// them informationally and never gates on them.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/math_util.h"
#include "serve/client.h"
#include "serve/request_trace.h"
#include "serve/serve_app.h"

namespace {

struct ClientStats {
  uint64_t ok = 0;
  uint64_t rejected_403 = 0;  // budget exhausted
  uint64_t rejected_429 = 0;  // admission queue full
  uint64_t timeout_504 = 0;   // client deadline expired while queued
  uint64_t failed = 0;        // transport errors, 4xx/5xx outside the above
  uint64_t coalesced = 0;     // publish responses served as batch followers
  uint64_t trace_mismatch = 0;  // response traceparent absent or wrong trace id

  uint64_t rejected() const { return rejected_403 + rejected_429 + timeout_504; }
};

}  // namespace

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/0.25,
                            {"clients", "requests", "publish_pct", "min_qps", "deadline_ms",
                             "access_log", "genome_snps", "tenant_budget", "max_pending",
                             "slo_config"});
  ppdp::Flags flags(argc, argv);
  const int clients = static_cast<int>(flags.GetInt("clients", 8));
  const uint64_t total_requests = static_cast<uint64_t>(flags.GetInt("requests", 2048));
  const int publish_pct = static_cast<int>(flags.GetInt("publish_pct", 12));
  const double min_qps = flags.GetDouble("min_qps", 0.0);
  const double deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  const std::string access_log = flags.GetString("access_log", "");

  ppdp::serve::ServeOptions options;
  options.port = 0;
  options.http_max_conns = clients + 4;
  options.graph_scale = env.scale;
  options.genome_snps = static_cast<size_t>(flags.GetInt("genome_snps", 300));
  options.seed = env.seed;
  options.threads = env.threads;
  // The bench measures serving latency, not budget exhaustion; give every
  // tenant room for its whole request share.
  options.tenant_budget = flags.GetDouble("tenant_budget", 1e9);
  options.max_tenants = static_cast<size_t>(clients) + 4;
  options.max_pending = static_cast<int>(flags.GetInt("max_pending", clients * 8));
  options.access_log = access_log;
  if (!access_log.empty()) {
    // The daemon appends; start from an empty log so it holds this run only.
    std::ofstream(access_log, std::ios::trunc);
    std::remove((access_log + ".1").c_str());
  }
  options.slo_config = flags.GetString("slo_config", "");

  auto app = ppdp::serve::ServeApp::Create(options);
  if (!app.ok()) {
    std::cerr << "bench_serve: " << app.status().ToString() << "\n";
    return 1;
  }
  if (ppdp::Status started = (*app)->Start(); !started.ok()) {
    std::cerr << "bench_serve: " << started.ToString() << "\n";
    return 1;
  }
  const int port = (*app)->port();

  // Client-observed latency (connect + request + response). Bounds mirror
  // the server-side serve.request.seconds histogram so the two line up in
  // `ppdp_stat report` diffs.
  ppdp::obs::Histogram& latency = ppdp::obs::MetricsRegistry::Global().histogram(
      "serve.client.seconds",
      {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
       2.5});

  std::atomic<uint64_t> next_request{0};
  std::vector<ClientStats> stats(static_cast<size_t>(clients));
  std::vector<std::vector<double>> client_seconds(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const double bench_start = ppdp::obs::MonotonicSeconds();

  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::string tenant = "bench" + std::to_string(c);
      ClientStats& mine = stats[static_cast<size_t>(c)];
      std::vector<double>& my_seconds = client_seconds[static_cast<size_t>(c)];
      while (true) {
        const uint64_t i = next_request.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_requests) break;

        ppdp::JsonValue body = ppdp::JsonValue::Object();
        body.Set("tenant", ppdp::JsonValue::String(tenant));
        std::string path;
        const uint64_t slot = i % 100;
        if (slot < static_cast<uint64_t>(publish_pct)) {
          // One shared config: concurrent publishes coalesce into one run.
          path = "/v1/publish";
          body.Set("kind", ppdp::JsonValue::String("genome"));
          body.Set("epsilon", ppdp::JsonValue::Number(0.25));
        } else if (slot < 90) {
          path = "/v1/dp/aggregate";
          body.Set("op", ppdp::JsonValue::String(slot % 2 == 0 ? "histogram" : "range_count"));
          body.Set("epsilon", ppdp::JsonValue::Number(0.05));
        } else {
          // The tenant's first request is never an audit (slot >= 90 needs
          // i >= 90 > clients), so the ledger already exists.
          path = "/v1/audit";
        }
        if (deadline_ms > 0.0 && path != "/v1/audit") {
          body.Set("deadline_ms", ppdp::JsonValue::Number(deadline_ms));
        }

        // Propagate a client-minted trace id; the server must echo it.
        const std::string trace_id = ppdp::serve::GenerateTraceId();
        const std::map<std::string, std::string> headers = {
            {"traceparent",
             ppdp::serve::FormatTraceparent(trace_id, ppdp::serve::GenerateSpanId())}};

        const double start = ppdp::obs::MonotonicSeconds();
        auto response = ppdp::serve::PostJson(port, path, body, /*timeout_seconds=*/10.0, headers);
        const double seconds = ppdp::obs::MonotonicSeconds() - start;
        latency.Observe(seconds);
        my_seconds.push_back(seconds);
        if (!response.ok()) {
          ++mine.failed;
          continue;
        }
        std::string echoed_trace_id;
        if (!ppdp::serve::ParseTraceparent(response->HeaderOr("traceparent", ""),
                                           &echoed_trace_id) ||
            echoed_trace_id != trace_id) {
          ++mine.trace_mismatch;
        }
        if (response->status == 200) {
          ++mine.ok;
          if (path == "/v1/publish") {
            auto doc = response->Json();
            if (doc.ok() && doc->GetBoolOr("coalesced", false)) ++mine.coalesced;
          }
        } else if (response->status == 403) {
          ++mine.rejected_403;
        } else if (response->status == 429) {
          ++mine.rejected_429;
        } else if (response->status == 504) {
          ++mine.timeout_504;
        } else {
          ++mine.failed;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall = ppdp::obs::MonotonicSeconds() - bench_start;

  ClientStats total;
  for (const ClientStats& s : stats) {
    total.ok += s.ok;
    total.rejected_403 += s.rejected_403;
    total.rejected_429 += s.rejected_429;
    total.timeout_504 += s.timeout_504;
    total.failed += s.failed;
    total.coalesced += s.coalesced;
    total.trace_mismatch += s.trace_mismatch;
  }
  // Response-class breakdown for the ppdp.bench.v1 run report (the global
  // telemetry snapshot carries every counter).
  ppdp::obs::MetricsRegistry::Global().counter("bench.serve.ok").Increment(total.ok);
  ppdp::obs::MetricsRegistry::Global().counter("bench.serve.rejected_403").Increment(total.rejected_403);
  ppdp::obs::MetricsRegistry::Global().counter("bench.serve.rejected_429").Increment(total.rejected_429);
  ppdp::obs::MetricsRegistry::Global().counter("bench.serve.timeout_504").Increment(total.timeout_504);
  ppdp::obs::MetricsRegistry::Global().counter("bench.serve.failed").Increment(total.failed);
  const double qps = wall > 0.0 ? static_cast<double>(total_requests) / wall : 0.0;

  // Exact percentiles over every request; the histogram's buckets are too
  // coarse for sub-millisecond medians.
  std::vector<double> seconds;
  for (const std::vector<double>& mine : client_seconds) {
    seconds.insert(seconds.end(), mine.begin(), mine.end());
  }
  std::sort(seconds.begin(), seconds.end());
  const double p50 = ppdp::QuantileOfSorted(seconds, 0.5);
  const double p95 = ppdp::QuantileOfSorted(seconds, 0.95);
  const double p99 = ppdp::QuantileOfSorted(seconds, 0.99);

  ppdp::Table table({"clients", "requests", "ok", "403", "429", "504", "failed", "coalesced",
                     "wall s", "qps", "p50 ms", "p95 ms", "p99 ms"});
  table.AddRow({std::to_string(clients), std::to_string(total_requests),
                std::to_string(total.ok), std::to_string(total.rejected_403),
                std::to_string(total.rejected_429), std::to_string(total.timeout_504),
                std::to_string(total.failed), std::to_string(total.coalesced),
                ppdp::Table::FormatDouble(wall, 3), ppdp::Table::FormatDouble(qps, 1),
                ppdp::Table::FormatDouble(p50 * 1e3, 3), ppdp::Table::FormatDouble(p95 * 1e3, 3),
                ppdp::Table::FormatDouble(p99 * 1e3, 3)});
  env.Emit(table, "serve_throughput", "closed-loop serving throughput and client latency");

  // Live SLO attainment over the run's windows, straight from the daemon's
  // engine — the same rows /sloz would serve. Recorded into the report's
  // "slos" stanza (informational in `ppdp_stat report` diffs).
  (*app)->slo().Evaluate();
  const std::vector<ppdp::obs::SloAttainment> slos = (*app)->slo().Attainment();
  ppdp::Table slo_table({"rule", "signal", "tenant", "objective", "attained", "verdict"});
  for (const ppdp::obs::SloAttainment& slo : slos) {
    slo_table.AddRow({slo.rule, slo.signal, slo.tenant.empty() ? "-" : slo.tenant,
                      ppdp::Table::FormatDouble(slo.objective, 4),
                      ppdp::Table::FormatDouble(slo.attained, 4), slo.met ? "met" : "MISSED"});
  }
  env.Emit(slo_table, "serve_slo", "SLO attainment over the run");
  env.RecordSloAttainment(slos);

  (*app)->Stop();

  // Server-side view: fold the access log's per-stage micros into the same
  // breakdown `ppdp_stat access` prints, so a bench run shows where request
  // time went without a second tool invocation.
  uint64_t log_records = 0;
  uint64_t logged = 0;
  if (!access_log.empty()) {
    struct StageAgg {
      uint64_t count = 0;
      double total_micros = 0.0;
    };
    std::map<std::string, StageAgg> stage_stats;
    std::string line;
    for (const std::string& path : {access_log + ".1", access_log}) {
      std::ifstream log_file(path);
      while (std::getline(log_file, line)) {
        if (line.empty()) continue;
        ++log_records;
        auto doc = ppdp::JsonValue::Parse(line);
        if (!doc.ok() || doc->GetStringOr("schema", "") != "ppdp.access.v1") continue;
        ++logged;
        StageAgg& whole = stage_stats["total"];
        ++whole.count;
        whole.total_micros += doc->GetNumberOr("total_micros", 0.0);
        const ppdp::JsonValue* stages = doc->Find("stages");
        if (stages == nullptr || !stages->is_object()) continue;
        for (const auto& [stage, micros] : stages->members()) {
          if (!micros.is_number()) continue;
          StageAgg& agg = stage_stats[stage];
          ++agg.count;
          agg.total_micros += micros.as_number();
        }
      }
    }
    ppdp::Table stage_table({"stage", "count", "mean ms"});
    for (const auto& [stage, agg] : stage_stats) {
      stage_table.AddRow({stage, std::to_string(agg.count),
                          ppdp::Table::FormatDouble(
                              agg.count > 0 ? agg.total_micros / (1e3 * agg.count) : 0.0, 3)});
    }
    env.Emit(stage_table, "serve_stage_breakdown",
             "server-side per-stage latency (" + std::to_string(logged) + " logged requests)");
  }

  if (!access_log.empty() && (log_records != logged || logged != total_requests)) {
    std::cerr << "bench_serve: access log holds " << logged << " ppdp.access.v1 records ("
              << log_records << " lines) for " << total_requests << " requests\n";
    return 1;
  }
  if (total.trace_mismatch > 0) {
    std::cerr << "bench_serve: " << total.trace_mismatch
              << " responses missing the echoed traceparent\n";
    return 1;
  }
  if (total.failed > 0) {
    std::cerr << "bench_serve: " << total.failed << " requests failed\n";
    return 1;
  }
  if (min_qps > 0.0 && qps < min_qps) {
    std::cerr << "bench_serve: achieved " << qps << " qps < --min_qps " << min_qps << "\n";
    return 1;
  }
  return 0;
}
