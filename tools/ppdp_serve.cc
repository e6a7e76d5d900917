// ppdp_serve — the publishing daemon. Loads the graph/genome corpora once,
// then serves POST /v1/publish, /v1/audit and /v1/dp/aggregate (JSON bodies)
// plus the usual introspection endpoints on 127.0.0.1.
//
//   ppdp_serve --port 8080 --tenant_budget 4.0
//   curl -s -XPOST localhost:8080/v1/publish -d '{"tenant":"acme","kind":"social","epsilon":0.5}'
//
// `ppdp_serve --help` prints every flag and exits 0.
//
// SIGTERM / SIGINT drain in-flight requests (new ones get 503), stop the
// server, and exit 0.

#include <csignal>
#include <chrono>
#include <iostream>
#include <string_view>
#include <thread>

#include "common/flags.h"
#include "exec/thread_pool.h"
#include "obs/log.h"
#include "serve/serve_app.h"

namespace {

/// What --help prints.
constexpr const char kUsage[] = R"(usage: ppdp_serve [flags]

Flags (all optional):
  --port N              bind port; 0 = ephemeral, printed at startup (0)
  --http_max_conns N    concurrent connection cap (32)
  --max_body_bytes N    413 threshold for request bodies (1048576)
  --graph_scale X       Caltech-like corpus scale (0.25)
  --genome_snps N       synthetic GWAS catalog width (300)
  --seed N              corpus + DP noise base seed (7)
  --threads N           exec width: 0 = all cores, 1 = serial (0)
  --tenant_budget X     ε budget per tenant ledger (4.0)
  --max_tenants N       tenant registry cap (64)
  --max_pending N       admission queue bound; 429 beyond (64)
  --drain_timeout_s X   graceful-shutdown drain bound (10)
  --ledger_wal PATH     privacy-ledger write-ahead log; spends are logged
                        and fsynced before admission and replayed at
                        startup so remaining-ε survives restarts
                        (off: in-memory)
  --request_deadline_s X  cap on client-declared "deadline_ms"; expired
                        requests get 504 (30)
  --access_log PATH     JSONL access log (ppdp.access.v1, one object per
                        request, per-stage micros); off when empty
  --access_log_max_mb X access-log size rotation threshold (256)
  --slow_request_ms X   capture requests at/above this wall time in the
                        FlightRecorder ring; 0 = off (0)
  --slo_config PATH     ppdp.slo.v1 alert-rule config; empty = built-in
                        defaults (availability, latency p99, queue
                        pressure, per-tenant ledger burn)
  --alert_log PATH      JSONL alert-transition log (ppdp.alertlog.v1);
                        off when empty
  --alert_log_max_mb X  alert-log size rotation threshold (16)
  --slo_eval_period_s X request-path alert evaluation throttle; 0
                        evaluates on every request (about 1 µs with the
                        default rules); /alertz and /sloz always
                        evaluate on read (1)
  --log_level L         debug|info|warn|error|off (info)
  --log_json            one JSON object per log line on stderr
  --help                print this list and exit 0

Any other flag is a usage error: the daemon names it and exits 2.
)";

/// Every flag main reads (log_level and log_json via InitLoggingFromFlags).
constexpr std::string_view kFlags[] = {
    "port", "http_max_conns", "max_body_bytes", "graph_scale", "genome_snps", "seed",
    "threads", "tenant_budget", "max_tenants", "max_pending", "drain_timeout_s",
    "ledger_wal", "request_deadline_s", "access_log", "access_log_max_mb",
    "slow_request_ms", "slo_config", "alert_log", "alert_log_max_mb", "slo_eval_period_s",
    "log_level", "log_json"};

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace ppdp;

  Flags flags(argc, argv);
  if (flags.help()) {
    std::cout << kUsage;
    return 0;
  }
  flags.RejectUnknown("ppdp_serve", kFlags);
  if (!obs::InitLoggingFromFlags(flags)) {
    std::cerr << "warning: unknown --log_level ignored (want debug|info|warn|error|off)\n";
  }

  serve::ServeOptions options;
  options.port = static_cast<int>(flags.GetInt("port", options.port));
  options.http_max_conns =
      static_cast<int>(flags.GetInt("http_max_conns", options.http_max_conns));
  options.max_request_body_bytes = static_cast<size_t>(
      flags.GetInt("max_body_bytes", static_cast<int64_t>(options.max_request_body_bytes)));
  options.graph_scale = flags.GetDouble("graph_scale", options.graph_scale);
  options.genome_snps =
      static_cast<size_t>(flags.GetInt("genome_snps", static_cast<int64_t>(options.genome_snps)));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  options.tenant_budget = flags.GetDouble("tenant_budget", options.tenant_budget);
  options.max_tenants =
      static_cast<size_t>(flags.GetInt("max_tenants", static_cast<int64_t>(options.max_tenants)));
  options.max_pending = static_cast<int>(flags.GetInt("max_pending", options.max_pending));
  options.drain_timeout_seconds = flags.GetDouble("drain_timeout_s", 10.0);
  options.ledger_wal = flags.GetString("ledger_wal", "");
  options.request_deadline_seconds = flags.GetDouble("request_deadline_s", 30.0);
  options.access_log = flags.GetString("access_log", "");
  options.access_log_max_mb = flags.GetDouble("access_log_max_mb", options.access_log_max_mb);
  options.slow_request_ms = flags.GetDouble("slow_request_ms", options.slow_request_ms);
  options.slo_config = flags.GetString("slo_config", "");
  options.alert_log = flags.GetString("alert_log", "");
  options.alert_log_max_mb = flags.GetDouble("alert_log_max_mb", options.alert_log_max_mb);
  options.slo_eval_period_seconds =
      flags.GetDouble("slo_eval_period_s", options.slo_eval_period_seconds);

  Status pool_status = exec::ThreadPool::SetGlobalThreads(options.threads);
  if (!pool_status.ok()) {
    std::cerr << "warning: --threads rejected: " << pool_status.ToString()
              << "; falling back to hardware concurrency\n";
    options.threads = 0;
  }

  Result<std::unique_ptr<serve::ServeApp>> app = serve::ServeApp::Create(options);
  if (!app.ok()) {
    std::cerr << "ppdp_serve: " << app.status().ToString() << "\n";
    return 1;
  }
  Status started = (*app)->Start();
  if (!started.ok()) {
    std::cerr << "ppdp_serve: " << started.ToString() << "\n";
    return 1;
  }
  // One structured line an operator (or the smoke job) can grep: what was
  // loaded, and how much spent-ε the WAL carried across the restart.
  std::cout << "(startup: " << (*app)->StartupSummary().Dump() << ")" << std::endl;
  // Flushed immediately so a supervising process (the CI smoke job) can
  // grep the resolved ephemeral port while the daemon runs.
  std::cout << "(serving: http://127.0.0.1:" << (*app)->port() << "/)" << std::endl;

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "(draining)" << std::endl;
  (*app)->Stop();
  std::cout << "(stopped)" << std::endl;
  return 0;
}
