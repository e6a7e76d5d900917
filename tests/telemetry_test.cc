// Live-telemetry suite: Prometheus exposition + strict validator, the
// embedded introspection server (over both HandlePath and real sockets,
// its connection cap and its shutdown), and the cross-layer
// instrumentation feeding them. The concurrency tests double as TSan
// regressions: scrapes race real publisher runs, and
// ThreadPool::GlobalStats races SetGlobalThreads.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "core/ppdp.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "fault/retry.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"

namespace ppdp::obs {
namespace {

/// Minimal blocking HTTP client against 127.0.0.1:`port`: sends `request`
/// verbatim, reads until the server closes, and splits status code, raw
/// header block (optional), and body. Returns false when the connection
/// itself fails; a read that ends in an error instead of EOF leaves its
/// errno in `recv_errno` (optional).
bool RawHttp(int port, const std::string& request, int* status, std::string* body,
             std::string* headers = nullptr, int* recv_errno = nullptr) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[2048];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  if (n < 0 && recv_errno != nullptr) *recv_errno = errno;
  ::close(fd);
  size_t space = response.find(' ');
  if (space == std::string::npos) return false;
  *status = std::atoi(response.c_str() + space + 1);
  size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  if (headers != nullptr) *headers = response.substr(0, header_end + 2);
  *body = response.substr(header_end + 4);
  return true;
}

/// Case-sensitive lookup of one header value in a raw "\r\n"-joined block;
/// empty string when absent.
std::string HeaderValue(const std::string& headers, const std::string& name) {
  const std::string needle = name + ": ";
  size_t pos = headers.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  size_t end = headers.find("\r\n", pos);
  if (end == std::string::npos) end = headers.size();
  return headers.substr(pos, end - pos);
}

bool HttpGet(int port, const std::string& path, int* status, std::string* body) {
  return RawHttp(port, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n", status, body);
}

TEST(SanitizeMetricNameTest, MapsOntoPrometheusGrammar) {
  EXPECT_EQ(SanitizeMetricName("exec_pool_tasks"), "exec_pool_tasks");
  EXPECT_EQ(SanitizeMetricName("classify.ica.rounds"), "classify_ica_rounds");
  EXPECT_EQ(SanitizeMetricName("a:b"), "a:b");  // colons are legal
  EXPECT_EQ(SanitizeMetricName("2fast"), "_2fast");
  EXPECT_EQ(SanitizeMetricName("spaces and-dashes"), "spaces_and_dashes");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("Δepsilon"), "__epsilon");  // two UTF-8 bytes
}

TEST(HistogramTest, CumulativeBucketCountsAreLeCumulative) {
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 3.0, 10.0}) h.Observe(v);
  EXPECT_EQ(h.bucket_counts(), (std::vector<uint64_t>{1, 1, 1, 1}));
  std::vector<uint64_t> cumulative = h.CumulativeBucketCounts();
  EXPECT_EQ(cumulative, (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(cumulative.back(), h.count());
}

TEST(PrometheusExpositionTest, GoldenRendering) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.counter("golden.requests").Increment(3);
  registry.gauge("golden.depth").Set(2.5);
  Histogram& lat = registry.histogram("golden.lat", {0.1, 1.0});
  lat.Observe(0.05);
  lat.Observe(0.5);
  lat.Observe(5.0);

  std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# HELP golden_requests ppdp metric golden.requests\n"
                      "# TYPE golden_requests counter\n"
                      "golden_requests 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE golden_depth gauge\ngolden_depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE golden_lat histogram\n"
                      "golden_lat_bucket{le=\"0.1\"} 1\n"
                      "golden_lat_bucket{le=\"1\"} 2\n"
                      "golden_lat_bucket{le=\"+Inf\"} 3\n"
                      "golden_lat_sum 5.55\n"
                      "golden_lat_count 3\n"),
            std::string::npos)
      << text;
  EXPECT_TRUE(ValidatePrometheusText(text).ok()) << ValidatePrometheusText(text).ToString();
}

TEST(PrometheusExpositionTest, EveryRegisteredMetricSurvivesStrictParsing) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  // Deliberately hostile internal names: they must sanitize into a valid
  // document rather than poison the whole scrape.
  registry.counter("9starts.with-digit").Increment();
  registry.gauge("weird name (bytes/sec)").Set(-1.5);
  registry.histogram("2.hist", {1.0}).Observe(0.5);
  Status status = ValidatePrometheusText(registry.ToPrometheus());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PrometheusValidatorTest, AcceptsSpecConstructs) {
  EXPECT_TRUE(ValidatePrometheusText("").ok());
  EXPECT_TRUE(ValidatePrometheusText("# just a comment\n").ok());
  EXPECT_TRUE(ValidatePrometheusText("# HELP up liveness\n# TYPE up gauge\nup 1\n").ok());
  // Labels, timestamps, and non-finite values are all legal samples.
  EXPECT_TRUE(ValidatePrometheusText("# HELP rpc count\n# TYPE rpc counter\n"
                                     "rpc{method=\"get\",code=\"200\"} 4 1395066363000\n")
                  .ok());
  EXPECT_TRUE(
      ValidatePrometheusText("# HELP t temp\n# TYPE t gauge\nt NaN\n").ok());
}

TEST(PrometheusValidatorTest, RejectsStructuralViolations) {
  // Missing trailing newline.
  EXPECT_FALSE(ValidatePrometheusText("# HELP up u\n# TYPE up gauge\nup 1").ok());
  // Sample with no TYPE / no HELP.
  EXPECT_FALSE(ValidatePrometheusText("up 1\n").ok());
  EXPECT_FALSE(ValidatePrometheusText("# TYPE up gauge\nup 1\n").ok());
  // Invalid metric name.
  EXPECT_FALSE(ValidatePrometheusText("# HELP 2up u\n# TYPE 2up gauge\n2up 1\n").ok());
  // Unparseable value.
  EXPECT_FALSE(ValidatePrometheusText("# HELP up u\n# TYPE up gauge\nup one\n").ok());
  // Non-contiguous sample blocks for one metric.
  EXPECT_FALSE(ValidatePrometheusText("# HELP a a\n# TYPE a counter\na 1\n"
                                      "# HELP b b\n# TYPE b counter\nb 1\na 2\n")
                   .ok());
  // Histogram whose buckets are not cumulative.
  EXPECT_FALSE(ValidatePrometheusText("# HELP h h\n# TYPE h histogram\n"
                                      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
                                      "h_sum 1\nh_count 3\n")
                   .ok());
  // Histogram without a +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText("# HELP h h\n# TYPE h histogram\n"
                                      "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n")
                   .ok());
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(ValidatePrometheusText("# HELP h h\n# TYPE h histogram\n"
                                      "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n")
                   .ok());
}

TEST(TelemetryServerTest, HandlePathServesEveryEndpoint) {
  MetricsRegistry::Global().Reset();
  TelemetryServer server({});
  int status = 0;
  std::string content_type;

  std::string metrics = server.HandlePath("/metrics", &status, &content_type);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(content_type, "text/plain; version=0.0.4; charset=utf-8");
  Status valid = ValidatePrometheusText(metrics);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  EXPECT_EQ(server.HandlePath("/healthz", &status, &content_type), "ok\n");
  EXPECT_EQ(status, 200);

  std::string statusz = server.HandlePath("/statusz", &status, &content_type);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(content_type, "application/json");
  auto parsed = JsonValue::Parse(statusz);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetStringOr("schema", ""), "ppdp.statusz.v1");

  std::string flightz = server.HandlePath("/flightz", &status, &content_type);
  EXPECT_EQ(status, 200);
  auto flight = JsonValue::Parse(flightz);
  ASSERT_TRUE(flight.ok()) << flight.status().ToString();
  EXPECT_EQ(flight->GetStringOr("schema", ""), "ppdp.flight.v1");

  std::string index = server.HandlePath("/", &status, &content_type);
  EXPECT_EQ(status, 200);
  EXPECT_NE(index.find("/metrics"), std::string::npos);

  server.HandlePath("/nope", &status, &content_type);
  EXPECT_EQ(status, 404);
}

TEST(TelemetryServerTest, HealthzTracksLedgerRejections) {
  MetricsRegistry::Global().Reset();
  TelemetryServer server({});
  int status = 0;
  std::string content_type;
  EXPECT_EQ(server.HandlePath("/healthz", &status, &content_type), "ok\n");
  {
    PrivacyLedger ledger(0.5);
    EXPECT_FALSE(ledger.Spend("big", "laplace", 1.0).ok());  // over budget
    EXPECT_EQ(server.HandlePath("/healthz", &status, &content_type), "degraded\n");
  }
  // The rejected ledger died with its scope; the process is healthy again.
  EXPECT_EQ(server.HandlePath("/healthz", &status, &content_type), "ok\n");
}

TEST(TelemetryServerTest, StatuszRoundTripsThroughCommonJson) {
  MetricsRegistry::Global().Reset();
  PrivacyLedger ledger(2.0);
  ledger.SetName("statusz_entity");
  ASSERT_TRUE(ledger.Spend("phase", "laplace", 0.5).ok());
  TraceSpan span(PPDP_SPAN_SITE("statusz.test.span"));

  TelemetryServer::Options options;
  options.flags = {{"seed", "7"}, {"threads", "4"}};
  options.seed = 7;
  options.threads = 4;
  TelemetryServer server(std::move(options));

  JsonValue doc = server.StatuszDocument();
  auto reparsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->Dump(), doc.Dump());

  EXPECT_EQ(reparsed->GetStringOr("schema", ""), "ppdp.statusz.v1");
  EXPECT_EQ(reparsed->GetNumberOr("seed", 0), 7.0);
  EXPECT_EQ(reparsed->GetNumberOr("threads", 0), 4.0);
  ASSERT_TRUE(reparsed->Has("flags"));
  EXPECT_EQ(reparsed->Find("flags")->GetStringOr("seed", ""), "7");
  ASSERT_TRUE(reparsed->Has("build"));
  EXPECT_FALSE(reparsed->Find("build")->GetStringOr("compiler", "").empty());

  // The live ledger appears with a consistent snapshot.
  const JsonValue* ledgers = reparsed->Find("ledgers");
  ASSERT_NE(ledgers, nullptr);
  bool found = false;
  for (size_t i = 0; i < ledgers->size(); ++i) {
    const JsonValue& entry = ledgers->at(i);
    if (entry.GetStringOr("name", "") != "statusz_entity") continue;
    found = true;
    EXPECT_DOUBLE_EQ(entry.GetNumberOr("budget", 0), 2.0);
    EXPECT_DOUBLE_EQ(entry.GetNumberOr("spent", 0), 0.5);
    EXPECT_DOUBLE_EQ(entry.GetNumberOr("remaining", 0), 1.5);
  }
  EXPECT_TRUE(found) << doc.Dump();

  // This thread's open span stack includes the span above.
  const JsonValue* spans = reparsed->Find("active_spans");
  ASSERT_NE(spans, nullptr);
  bool span_found = false;
  for (size_t i = 0; i < spans->size(); ++i) {
    const JsonValue* names = spans->at(i).Find("spans");
    if (names == nullptr) continue;
    for (size_t j = 0; j < names->size(); ++j) {
      if (names->at(j).is_string() && names->at(j).as_string() == "statusz.test.span") {
        span_found = true;
      }
    }
  }
  EXPECT_TRUE(span_found) << doc.Dump();

  // The exec thread pool registered its section at static init.
  exec::ParallelFor(0, 64, 8, [](size_t) {});
  JsonValue with_pool = server.StatuszDocument();
  const JsonValue* pool = with_pool.Find("thread_pool");
  ASSERT_NE(pool, nullptr) << with_pool.Dump();
  EXPECT_GE(pool->GetNumberOr("executed", -1), 0.0);
  EXPECT_GE(pool->GetNumberOr("target_threads", 0), 1.0);
}

TEST(TelemetryServerTest, ServesOverRealSockets) {
  TelemetryServer server({});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);  // ephemeral port resolved

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  Status valid = ValidatePrometheusText(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);

  ASSERT_TRUE(RawHttp(server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n", &status, &body));
  EXPECT_EQ(status, 405);

  ASSERT_TRUE(HttpGet(server.port(), "/missing", &status, &body));
  EXPECT_EQ(status, 404);

  // Telemetry scrapes are themselves counted.
  EXPECT_GT(MetricsRegistry::Global().counter("telemetry.requests").value(), 0u);

  int port = server.port();
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(HttpGet(port, "/healthz", &status, &body));  // socket is gone

  // Starting a fresh server afterwards works (no leaked listener state).
  TelemetryServer second({});
  ASSERT_TRUE(second.Start().ok());
  ASSERT_TRUE(HttpGet(second.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
}

TEST(TelemetryServerTest, EveryEndpointCarriesCorrectHeaders) {
  // Golden header audit: every endpoint — success and error paths alike —
  // must declare an accurate Content-Type and Content-Length, or a curl in
  // a CI pipe silently mis-frames the body.
  TelemetryServer server({});
  ASSERT_TRUE(server.Start().ok());

  struct Expectation {
    std::string request;
    int status;
    std::string content_type;
  };
  const std::vector<Expectation> expectations = {
      {"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", 200,
       "text/plain; version=0.0.4; charset=utf-8"},
      {"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 200, "text/plain; charset=utf-8"},
      {"GET /statusz HTTP/1.1\r\nHost: x\r\n\r\n", 200, "application/json"},
      {"GET /flightz HTTP/1.1\r\nHost: x\r\n\r\n", 200, "application/json"},
      {"GET / HTTP/1.1\r\nHost: x\r\n\r\n", 200, "text/plain; charset=utf-8"},
      {"GET /missing HTTP/1.1\r\nHost: x\r\n\r\n", 404, "text/plain; charset=utf-8"},
      {"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n", 405, "text/plain; charset=utf-8"},
      {"NONSENSE\r\n\r\n", 400, "text/plain; charset=utf-8"},
  };
  for (const Expectation& expectation : expectations) {
    int status = 0;
    std::string body, headers;
    ASSERT_TRUE(RawHttp(server.port(), expectation.request, &status, &body, &headers))
        << expectation.request;
    EXPECT_EQ(status, expectation.status) << expectation.request;
    EXPECT_EQ(HeaderValue(headers, "Content-Type"), expectation.content_type)
        << expectation.request;
    // Content-Length must match the bytes actually delivered.
    EXPECT_EQ(HeaderValue(headers, "Content-Length"), std::to_string(body.size()))
        << expectation.request << "\n" << headers;
    EXPECT_EQ(HeaderValue(headers, "Connection"), "close") << expectation.request;
    EXPECT_FALSE(body.empty()) << expectation.request;
  }
  server.Stop();
}

TEST(TelemetryServerTest, MalformedRequestLineGets400NotHang) {
  TelemetryServer server({});
  ASSERT_TRUE(server.Start().ok());
  int status = 0;
  std::string body;
  // No second space in the request line: client error, not method error.
  ASSERT_TRUE(RawHttp(server.port(), "GET\r\n\r\n", &status, &body));
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("malformed"), std::string::npos);
  server.Stop();
}

TEST(TelemetryServerTest, ProfilezCapturesSchemaValidProfile) {
  if (Profiler::Global().running()) GTEST_SKIP() << "profiler busy elsewhere";
  TelemetryServer server({});
  int status = 0;
  std::string content_type;
  // Keep a registered thread burning CPU so the capture must collect real
  // samples — this proves the live path arms each thread's *own* CPU clock
  // (an idle capture thread arming CLOCK_THREAD_CPUTIME_ID would get zero).
  std::atomic<bool> done{false};
  std::thread burner([&] {
    ProfiledThreadScope profiled;
    volatile uint64_t sink = 0;
    while (!done.load(std::memory_order_acquire)) sink = sink * 3 + 1;
  });
  std::string body = server.HandlePath("/profilez?seconds=1&hz=97", &status, &content_type);
  done.store(true, std::memory_order_release);
  burner.join();
  ASSERT_EQ(status, 200) << body;
  EXPECT_EQ(content_type, "application/json");
  auto doc = JsonValue::Parse(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<CpuProfile> valid = CpuProfile::FromJson(*doc);
  EXPECT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(doc->GetStringOr("schema", ""), "ppdp.profile.v1");
  EXPECT_GT(doc->GetNumberOr("samples", 0), 0.0) << body;
  // The one-shot capture must leave the global profiler stopped and clean.
  EXPECT_FALSE(Profiler::Global().running());
  EXPECT_EQ(Profiler::Global().samples_recorded(), 0u);

  // A bad query degrades to defaults rather than erroring.
  body = server.HandlePath("/profilez?seconds=bogus", &status, &content_type);
  EXPECT_EQ(status, 200) << body;
}

TEST(TelemetryServerTest, StatuszReportsProfilerAndProcessSections) {
  TelemetryServer server({});
  JsonValue doc = server.StatuszDocument();
  const JsonValue* profiler = doc.Find("profiler");
  ASSERT_NE(profiler, nullptr) << doc.Dump();
  EXPECT_FALSE(profiler->GetBoolOr("running", true));
  EXPECT_GE(profiler->GetNumberOr("threads_registered", -1), 0.0);
  const JsonValue* process = doc.Find("process");
  ASSERT_NE(process, nullptr) << doc.Dump();
  EXPECT_GT(process->GetNumberOr("rss_bytes", 0), 0.0);
  EXPECT_GT(process->GetNumberOr("peak_rss_bytes", 0), 0.0);
  EXPECT_GE(process->GetNumberOr("cpu_user_seconds", -1), 0.0);
}

TEST(TelemetryServerTest, DoubleStartFailsAndStopIsIdempotent) {
  TelemetryServer server({});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
  server.Stop();  // no-op
}

TEST(TelemetryServerTest, ConnectionLimitAnswers503) {
  TelemetryServer::Options options;
  options.max_connections = 1;
  options.read_timeout_seconds = 1.0;
  TelemetryServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  // Occupy the only slot with a half-sent request.
  int hog = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(hog, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(hog, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char partial[] = "GET /metrics HTT";
  ASSERT_GT(::send(hog, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);

  // Give a server thread a moment to accept the hog and start reading it,
  // then further connections must fast-fail.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 503);

  ::close(hog);
  server.Stop();
}

TEST(TelemetryServerTest, CappedConnectionsReadThe503EnvelopeNeverAReset) {
  TelemetryServer::Options options;
  options.max_connections = 1;
  options.read_timeout_seconds = 30.0;  // the hog keeps its slot for the whole test
  TelemetryServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  int hog = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(hog, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(hog, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Full requests, body included, each already sent when the server
  // refuses it: every client must read the whole 503 envelope and a clean
  // EOF, never ECONNRESET.
  const std::string body = R"({"tenant":"t","kind":"genome","epsilon":0.05})";
  const std::string request = "POST /v1/publish HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Type: application/json\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
                              body;
  for (int i = 0; i < 200; ++i) {
    int status = 0;
    int recv_errno = 0;
    std::string response_body;
    ASSERT_TRUE(RawHttp(server.port(), request, &status, &response_body, nullptr, &recv_errno))
        << "request " << i;
    ASSERT_EQ(recv_errno, 0) << "request " << i << ": " << std::strerror(recv_errno);
    ASSERT_EQ(status, 503) << "request " << i;
    auto doc = JsonValue::Parse(response_body);
    ASSERT_TRUE(doc.ok()) << response_body;
    EXPECT_EQ(doc->GetStringOr("schema", ""), "ppdp.serve.error.v1");
  }
  ::close(hog);
  server.Stop();
}

TEST(TelemetryServerTest, StopUnblocksInFlightConnections) {
  TelemetryServer::Options options;
  options.read_timeout_seconds = 30.0;  // Stop must not wait for this
  TelemetryServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  // Open a connection and leave the request unfinished: the handler blocks
  // in recv until Stop shuts the socket down.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char partial[] = "GET /statusz HT";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto begin = std::chrono::steady_clock::now();
  server.Stop();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  EXPECT_LT(seconds, 5.0) << "Stop must not wait out the read timeout";
  ::close(fd);
}

/// A handler that blocks until Release() (at most 10 s, so a failed
/// assertion cannot hang the suite): each held request pins the connection
/// thread serving it. Declare it before the server, which must stop first.
struct HeldRequests {
  HttpHandler Handler() {
    return [this](const HttpRequest&, HttpResponse* response) {
      entered.fetch_add(1, std::memory_order_acq_rel);
      released.wait_for(std::chrono::seconds(10));
      response->Text(200, "released\n");
    };
  }
  /// True once `n` requests are inside the handler (waits up to 5 s).
  bool AwaitEntered(int n) const {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (entered.load(std::memory_order_acquire) < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
  void Release() { release.set_value(); }

  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
};

TEST(TelemetryServerTest, HeldConnectionsFillTheCapAndFreeItOnAnswer) {
  TelemetryServer::Options options;
  options.max_connections = 2;
  HeldRequests held;
  TelemetryServer server(std::move(options));
  server.RegisterHandler("GET", "/hold", held.Handler());
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&] {
      int status = 0;
      std::string body;
      if (HttpGet(server.port(), "/hold", &status, &body) && status == 200) {
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  ASSERT_TRUE(held.AwaitEntered(2));

  // Both slots are held: the thread left in accept() refuses the third
  // connection with the whole 503 envelope and a clean EOF.
  int status = 0;
  int recv_errno = 0;
  std::string body;
  ASSERT_TRUE(RawHttp(server.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", &status,
                      &body, nullptr, &recv_errno));
  EXPECT_EQ(recv_errno, 0) << std::strerror(recv_errno);
  EXPECT_EQ(status, 503);
  auto doc = JsonValue::Parse(body);
  ASSERT_TRUE(doc.ok()) << body;
  EXPECT_EQ(doc->GetStringOr("schema", ""), "ppdp.serve.error.v1");

  held.Release();
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(answered.load(), 2);
  // The held connections were un-listed before their clients saw EOF.
  ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  server.Stop();
}

TEST(TelemetryServerTest, SequentialRequestsUnderACapOfOneNeverMeetA503) {
  TelemetryServer::Options options;
  options.max_connections = 1;
  TelemetryServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  // A closed-loop client: each connection's slot is free before the client
  // reads its EOF, so the next connection never finds the cap full.
  for (int i = 0; i < 500; ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(HttpGet(server.port(), "/healthz", &status, &body)) << "request " << i;
    ASSERT_EQ(status, 200) << "request " << i << ": " << body;
  }
  server.Stop();
}

TEST(TelemetryServerTest, StopWakesEveryThreadIdleInAccept) {
  HeldRequests held;
  TelemetryServer server({});  // max_connections = 8
  server.RegisterHandler("GET", "/hold", held.Handler());
  ASSERT_TRUE(server.Start().ok());

  // Eight concurrent requests spawn a thread each, plus the one left in
  // accept(); once answered, all nine are idle in accept().
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      int status = 0;
      std::string body;
      EXPECT_TRUE(HttpGet(server.port(), "/hold", &status, &body));
      EXPECT_EQ(status, 200);
    });
  }
  ASSERT_TRUE(held.AwaitEntered(8));
  held.Release();
  for (std::thread& client : clients) client.join();

  const auto begin = std::chrono::steady_clock::now();
  server.Stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  EXPECT_LT(seconds, 1.0);
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServerTest, ConcurrentScrapesDuringParallelPublisherRun) {
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(4).ok());
  TelemetryServer server({});
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        int status = 0;
        std::string body, content_type;
        if (HttpGet(server.port(), "/metrics", &status, &body) && status == 200) {
          Status valid = ValidatePrometheusText(body);
          EXPECT_TRUE(valid.ok()) << valid.ToString();
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        // Exercise the socket-free paths (and their locks) as well.
        server.HandlePath("/statusz", &status, &content_type);
        server.HandlePath("/healthz", &status, &content_type);
        (void)exec::ThreadPool::GlobalStats();
      }
    });
  }

  // A real publisher pipeline runs in parallel while the scrapers hammer
  // every telemetry surface it updates (metrics, spans, ledger, pool).
  PrivacyLedger ledger(10.0);
  ledger.SetName("scrape_run");
  graph::SocialGraph g = graph::GenerateSyntheticGraph(graph::CaltechLikeConfig(0.15, 11));
  auto created =
      core::SocialPublisher::Create(g, {.known_fraction = 0.7, .seed = 1, .threads = 4,
                                        .ledger = &ledger});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  for (int round = 0; round < 2; ++round) {
    created->AttackAccuracy(classify::AttackModel::kCollective,
                            classify::LocalModel::kNaiveBayes);
  }

  done.store(true, std::memory_order_release);
  for (std::thread& thread : scrapers) thread.join();
  server.Stop();
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_GT(MetricsRegistry::Global().counter("social.progress.attack").value(), 0u);
}

TEST(ThreadPoolStatsTest, GlobalStatsRacesResizeSafely) {
  // TSan regression for the SetGlobalThreads-vs-scrape race: readers take
  // GlobalStats (and the Prometheus renderer) while another thread resizes
  // the pool and keeps it busy.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      exec::ThreadPool::PoolStats stats = exec::ThreadPool::GlobalStats();
      EXPECT_GE(stats.target_threads, 1u);
      (void)MetricsRegistry::Global().ToPrometheus();
    }
  });
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(1 + round % 4).ok());
    exec::ParallelFor(0, 256, 16, [](size_t) {});
  }
  done.store(true, std::memory_order_release);
  reader.join();

  exec::ThreadPool::PoolStats stats = exec::ThreadPool::GlobalStats();
  EXPECT_GE(stats.submitted, stats.executed);
  EXPECT_GT(stats.executed, 0u);
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(0).ok());
}

TEST(InstrumentationTest, FaultInjectorFiringsReachTheRegistry) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  fault::FaultInjector& injector = fault::FaultInjector::Global();
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.rate = 1.0;  // every evaluation fires
  ASSERT_TRUE(injector.Arm(plan).ok());
  fault::FaultDecision drop = injector.Evaluate("telemetry.test.drop", fault::kMaskDrop);
  injector.Disarm();

  EXPECT_TRUE(drop.fired());
  EXPECT_GE(registry.counter("fault.fired").value(), 1u);
  EXPECT_GE(registry.counter("fault.drops").value(), 1u);
  EXPECT_GE(registry.counter("fault.fired.telemetry.test.drop").value(), 1u);
}

TEST(InstrumentationTest, RetryPolicyTotalsReachTheRegistry) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  fault::RetryPolicy policy;
  policy.max_attempts = 2;
  Rng rng(1);
  EXPECT_TRUE(policy.AllowsAttempt(0, 0.0));
  EXPECT_TRUE(policy.AllowsAttempt(1, 0.0));
  EXPECT_FALSE(policy.AllowsAttempt(2, 0.0));
  double backoff = policy.BackoffMs(1, rng);
  EXPECT_GT(backoff, 0.0);

  EXPECT_EQ(registry.counter("retry.attempts").value(), 2u);
  EXPECT_EQ(registry.counter("retry.exhausted").value(), 1u);
  EXPECT_EQ(registry.counter("retry.backoffs").value(), 1u);
  EXPECT_GT(registry.gauge("retry.backoff_ms_total").value(), 0.0);
}

TEST(InstrumentationTest, LedgerExportsRemainingEpsilonGauge) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  PrivacyLedger ledger(1.0);
  ledger.SetName("gauge_entity");
  Gauge& gauge = registry.gauge("ledger.gauge_entity.remaining_epsilon");
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
  ASSERT_TRUE(ledger.Spend("phase", "laplace", 0.25).ok());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.75);

  // SnapshotAll carries both named and auto-named live ledgers.
  PrivacyLedger anonymous(3.0);
  bool named = false, anon = false;
  for (const auto& [name, snapshot] : PrivacyLedger::SnapshotAll()) {
    if (name == "gauge_entity") {
      named = true;
      EXPECT_DOUBLE_EQ(snapshot.remaining, 0.75);
    }
    if (snapshot.budget == 3.0 && name.rfind("ledger", 0) == 0) anon = true;
  }
  EXPECT_TRUE(named);
  EXPECT_TRUE(anon);
}

TEST(InstrumentationTest, ThreadPoolGaugesTrackWork) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(2).ok());
  uint64_t before = registry.counter("exec.pool.submitted").value();
  exec::ParallelFor(0, 128, 8, [](size_t) {});
  EXPECT_GT(registry.counter("exec.pool.submitted").value(), before);
  exec::ThreadPool::PoolStats stats = exec::ThreadPool::GlobalStats();
  EXPECT_EQ(stats.target_threads, 2u);
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(0).ok());
}

}  // namespace
}  // namespace ppdp::obs
