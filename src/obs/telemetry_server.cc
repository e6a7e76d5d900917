#include "obs/telemetry_server.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace ppdp::obs {

namespace {

/// Registered /statusz extension sections (key -> provider).
struct StatuszSections {
  std::mutex mutex;
  std::map<std::string, std::function<JsonValue()>> providers;

  static StatuszSections& Global() {
    static StatuszSections* sections = new StatuszSections();  // intentionally leaked
    return *sections;
  }
};

/// Serializes /profilez captures: a second concurrent request gets a 503
/// instead of fighting over the one global profiler.
std::mutex& ProfilezMutex() {
  static std::mutex* mutex = new std::mutex();  // intentionally leaked
  return *mutex;
}

/// Route-prefix match: exact, or a '/'-separated extension of the prefix.
/// "/v1/publish" claims "/v1/publish" and "/v1/publish/x", never
/// "/v1/publisher".
bool PrefixClaims(const std::string& prefix, const std::string& path) {
  if (path.size() < prefix.size()) return false;
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  if (path.size() == prefix.size()) return true;
  return prefix.back() == '/' || path[prefix.size()] == '/';
}

/// Outcome of a deadline-bounded socket read.
enum class RecvVerdict { kData, kClosed, kTimeout };

/// Poll-bounded recv against an absolute MonotonicSeconds deadline. The
/// deadline covers the WHOLE read (every call shares it), so a client
/// trickling one byte per poll interval cannot keep the connection alive
/// the way it could against a per-recv SO_RCVTIMEO. Bytes already buffered
/// are taken without a poll; it polls only when there are none.
RecvVerdict RecvWithDeadline(int fd, char* buffer, size_t cap, double deadline, ssize_t* n_out) {
  while (true) {
    const double remaining = deadline - MonotonicSeconds();
    if (remaining <= 0.0) return RecvVerdict::kTimeout;
    const ssize_t n = ::recv(fd, buffer, cap, MSG_DONTWAIT);
    if (n > 0) {
      *n_out = n;
      return RecvVerdict::kData;
    }
    if (n == 0) return RecvVerdict::kClosed;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return RecvVerdict::kClosed;
    pollfd pfd{fd, POLLIN, 0};
    const int timeout_ms = static_cast<int>(std::min(remaining * 1000.0 + 1.0, 2.0e9));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return RecvVerdict::kClosed;
    }
    if (ready == 0) return RecvVerdict::kTimeout;
  }
}

/// Deadline-bounded full write; MSG_NOSIGNAL keeps a client that hung up
/// from killing the process with SIGPIPE. Returns false when the peer
/// stopped draining before the deadline (the write-timeout counterpart of
/// the slow-loris read defense). Like the read, it polls only when the
/// socket buffer is full.
bool SendAll(int fd, const std::string& data, double deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    const double remaining = deadline - MonotonicSeconds();
    if (remaining <= 0.0) return false;
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer gone or socket shut down — nothing to salvage.
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = static_cast<int>(std::min(remaining * 1000.0 + 1.0, 2.0e9));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) return false;
  }
  return true;
}

std::string PlainResponse(int status, const std::string& body) {
  HttpResponse response;
  response.Text(status, body);
  return response.Render();
}

/// Structured error body (the ppdp.serve.error.v1 envelope the serve layer
/// uses) for the protocol-level refusals this server emits itself, so a
/// JSON client parses one error shape at every layer.
std::string EnvelopeResponse(int status, const std::string& error) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.serve.error.v1"));
  doc.Set("error", JsonValue::String(error));
  HttpResponse response;
  response.Json(status, doc);
  return response.Render();
}

}  // namespace

void RegisterStatuszSection(const std::string& key, std::function<JsonValue()> provider) {
  StatuszSections& sections = StatuszSections::Global();
  std::lock_guard<std::mutex> lock(sections.mutex);
  sections.providers[key] = std::move(provider);
}

bool TelemetryDegraded() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.counter("channel.gave_up").value() > 0) return true;
  if (registry.counter("iot.server.degraded_estimates").value() > 0) return true;
  for (const auto& [name, snapshot] : PrivacyLedger::SnapshotAll()) {
    if (snapshot.rejected > 0) return true;
  }
  return false;
}

TelemetryServer::TelemetryServer(Options options) : options_(std::move(options)) {
  RegisterBuiltinRoutes();
}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::RegisterHandler(const std::string& method, const std::string& path_prefix,
                                      HttpHandler handler) {
  auto shared = std::make_shared<HttpHandler>(std::move(handler));
  std::lock_guard<std::mutex> lock(routes_mutex_);
  for (Route& route : routes_) {
    if (route.method == method && route.prefix == path_prefix) {
      route.handler = std::move(shared);
      return;
    }
  }
  routes_.push_back(Route{method, path_prefix, std::move(shared)});
}

void TelemetryServer::RegisterBuiltinRoutes() {
  RegisterHandler("GET", "/metrics", [](const HttpRequest&, HttpResponse* response) {
    response->SetStatus(200);
    response->SetContentType("text/plain; version=0.0.4; charset=utf-8");
    response->SetBody(MetricsRegistry::Global().ToPrometheus());
  });
  RegisterHandler("GET", "/healthz", [](const HttpRequest&, HttpResponse* response) {
    response->Text(200, TelemetryDegraded() ? "degraded\n" : "ok\n");
  });
  RegisterHandler("GET", "/statusz", [this](const HttpRequest&, HttpResponse* response) {
    response->RawJson(200, StatuszDocument().Dump() + "\n");
  });
  RegisterHandler("GET", "/flightz", [](const HttpRequest&, HttpResponse* response) {
    response->RawJson(200, FlightRecorder::Global().ToJson("flightz") + "\n");
  });
  RegisterHandler("GET", "/profilez", [this](const HttpRequest& request, HttpResponse* response) {
    HandleProfilez(request, response);
  });
  // The index owns the "/" prefix, which — by the longest-prefix rule —
  // also makes it the fallback for every path no other route claims; it
  // answers those with the 404 the server has always produced.
  RegisterHandler("GET", "/", [](const HttpRequest& request, HttpResponse* response) {
    if (request.path != "/" && !request.path.empty()) {
      response->Text(404, "not found: " + request.path + "\n");
      return;
    }
    response->Text(200,
                   "ppdp telemetry endpoints:\n"
                   "  /metrics   Prometheus text exposition 0.0.4\n"
                   "  /healthz   liveness + degraded flag\n"
                   "  /statusz   live process status (JSON)\n"
                   "  /flightz   flight-recorder ring (JSON)\n"
                   "  /profilez  on-demand CPU profile (JSON; ?seconds=N&hz=M)\n");
  });
}

void TelemetryServer::HandleProfilez(const HttpRequest& request, HttpResponse* response) const {
  Profiler& profiler = Profiler::Global();
  if (profiler.running()) {
    // A capture is already live (--profile_hz or another client): serve a
    // snapshot of what it has gathered so far without disturbing it.
    response->RawJson(200, profiler.Collect("profilez").ToJson().Dump() + "\n");
    return;
  }
  std::unique_lock<std::mutex> capture_lock(ProfilezMutex(), std::try_to_lock);
  if (!capture_lock.owns_lock()) {
    response->Text(503, "profile capture already in progress\n");
    return;
  }
  int seconds = request.QueryIntOr("seconds", 1);
  if (seconds < 1) seconds = 1;
  if (seconds > 30) seconds = 30;
  Profiler::Options profiler_options;
  profiler_options.hz = request.QueryIntOr("hz", 97);
  Status start_status = profiler.Start(profiler_options);
  if (!start_status.ok()) {
    response->Text(503, "profiler unavailable: " + start_status.ToString() + "\n");
    return;
  }
  // Interruptible wait: server shutdown must not block on a capture.
  for (int i = 0; i < seconds * 10 && !stopping_.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  profiler.Stop();
  CpuProfile profile = profiler.Collect("profilez");
  profiler.ClearSamples();  // leave the global profiler clean for --profile_hz runs
  response->RawJson(200, profile.ToJson().Dump() + "\n");
}

Status TelemetryServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("telemetry server already started");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("telemetry port must be in [0, 65535]");
  }
  if (options_.max_connections < 1) {
    return Status::InvalidArgument("telemetry max_connections must be >= 1");
  }
  if (options_.max_request_body_bytes < 1) {
    return Status::InvalidArgument("telemetry max_request_body_bytes must be >= 1");
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("telemetry socket(): ") + std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // introspection stays local
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Unavailable(std::string("telemetry bind(): ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 16) != 0) {
    Status status =
        Status::Unavailable(std::string("telemetry listen(): ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    Status status =
        Status::Unavailable(std::string("telemetry getsockname(): ") + std::strerror(errno));
    ::close(fd);
    return status;
  }

  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  start_seconds_ = MonotonicSeconds();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    idle_threads_ = 1;
    threads_.emplace_back([this] { ConnectionLoop(); });
  }
  PPDP_LOG(INFO) << "telemetry server listening" << Field("port", port());
  return Status::Ok();
}

void TelemetryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Shutting the listening socket down fails every blocked (or racing)
  // accept at once instead of handing out one last connection. Then kick
  // every in-flight connection out of its blocking read and wait for the
  // threads to exit — no thread outlives Stop. An in-flight connection
  // keeps its write side, so a response already dispatched (a request the
  // serve layer drained) still reaches its client within the write
  // deadline. stopping_ was set before this lock was taken, so a thread
  // that takes it later spawns nothing and closes what it accepted.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : serving_) ::shutdown(fd, SHUT_RD);
    threads.swap(threads_);
  }
  for (std::thread& thread : threads) thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  PPDP_LOG(INFO) << "telemetry server stopped";
}

void TelemetryServer::ConnectionLoop() {
  static Counter& rejected =
      MetricsRegistry::Global().counter("telemetry.rejected_connections");
  while (true) {
    // Blocks until a connection arrives; Stop's shutdown of the listening
    // socket fails it at once.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    bool over_cap = false;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (stopping_.load(std::memory_order_acquire)) {
        if (fd >= 0) ::close(fd);  // accepted as Stop began: left unserved
        return;
      }
      if (fd < 0) continue;  // EINTR or a client that gave up
      // The cap counts connections accepted and not yet answered.
      over_cap = serving_.size() >= static_cast<size_t>(options_.max_connections);
      if (!over_cap) {
        serving_.push_back(fd);
        // Leave a thread in accept(): spawn one only when no other is idle,
        // so there are never more than max_connections + 1.
        if (--idle_threads_ == 0) {
          idle_threads_ = 1;
          threads_.emplace_back([this] { ConnectionLoop(); });
        }
      }
    }
    if (over_cap) {
      // Fast-fail under load: a scrape storm gets an immediate structured
      // 503 rather than an unbounded queue. Half-close first so the client
      // reads the 503 and EOF even if a reset follows, then drop what it
      // already sent (without waiting for more) so close() sends no reset.
      rejected.Increment();
      SendAll(fd, EnvelopeResponse(503, "telemetry connection limit reached"),
              MonotonicSeconds() + options_.write_timeout_seconds);
      ::shutdown(fd, SHUT_WR);
      char buffer[1024];
      size_t drained = 0;
      ssize_t n;
      while (drained < options_.max_header_bytes &&
             (n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT)) > 0) {
        drained += static_cast<size_t>(n);
      }
      ::close(fd);
      continue;
    }
    HandleConnection(fd);
    {
      // Answered: un-listing frees the connection's slot.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      serving_.erase(std::find(serving_.begin(), serving_.end(), fd));
      ++idle_threads_;
    }
    // Only after un-listing: the client sees EOF once the socket is shut
    // down, so its next connection always finds the slot free, and Stop
    // never shuts down a descriptor number that was closed and reused.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void TelemetryServer::HandleConnection(int fd) {
  static Counter& scrapes = MetricsRegistry::Global().counter("telemetry.requests");
  static Counter& read_timeouts = MetricsRegistry::Global().counter("telemetry.read_timeouts");
  static Counter& write_timeouts = MetricsRegistry::Global().counter("telemetry.write_timeouts");
  // One absolute deadline covers the whole request read: request line,
  // headers, and body. Trickling bytes cannot extend it (slow-loris).
  const double read_deadline = MonotonicSeconds() + options_.read_timeout_seconds;
  const double write_deadline = read_deadline + options_.write_timeout_seconds;

  std::string request;
  char buffer[1024];
  bool timed_out = false;
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() <= options_.max_header_bytes) {
    ssize_t n = 0;
    const RecvVerdict verdict =
        RecvWithDeadline(fd, buffer, sizeof(buffer), read_deadline, &n);
    if (verdict == RecvVerdict::kTimeout) {
      timed_out = true;
      break;
    }
    if (verdict == RecvVerdict::kClosed) break;  // EOF or shutdown from Stop()
    request.append(buffer, static_cast<size_t>(n));
  }

  const size_t header_end = request.find("\r\n\r\n");
  std::string response;
  if (timed_out) {
    // The header section never completed within the deadline — whether the
    // client sent nothing or dripped one byte at a time.
    read_timeouts.Increment();
    response = EnvelopeResponse(408, "read deadline exceeded");
  } else if (header_end == std::string::npos) {
    if (request.size() > options_.max_header_bytes) {
      response = EnvelopeResponse(431, "header section exceeds " +
                                           std::to_string(options_.max_header_bytes) + " bytes");
    } else if (!request.empty()) {
      // Bytes arrived but the header never terminated (client hung up
      // mid-request): answer with a proper error instead of silently
      // hanging up ourselves.
      response = PlainResponse(400, "incomplete request\n");
    }
  } else {
    Result<HttpRequestHead> head = ParseHttpRequestHead(
        std::string_view(request).substr(0, header_end));
    if (!head.ok()) {
      // A garbled request line or smuggling-shaped headers (duplicate /
      // non-numeric Content-Length, Transfer-Encoding) are the client's
      // fault, not an unsupported method: 400, not 405.
      response = PlainResponse(400, head.status().message() + "\n");
    } else if (head->content_length > options_.max_request_body_bytes) {
      // Refuse before reading: the declared size alone is grounds for 413,
      // so an oversized upload never occupies buffer memory.
      response = PlainResponse(413, "request body exceeds " +
                                        std::to_string(options_.max_request_body_bytes) +
                                        " bytes\n");
    } else {
      const size_t body_bytes = head->content_length;
      const size_t total = header_end + 4 + body_bytes;
      while (request.size() < total) {
        ssize_t n = 0;
        const RecvVerdict verdict =
            RecvWithDeadline(fd, buffer, std::min(sizeof(buffer), total - request.size()),
                             read_deadline, &n);
        if (verdict == RecvVerdict::kTimeout) {
          timed_out = true;
          break;
        }
        if (verdict == RecvVerdict::kClosed) break;
        request.append(buffer, static_cast<size_t>(n));
      }
      if (timed_out) {
        read_timeouts.Increment();
        response = EnvelopeResponse(408, "read deadline exceeded");
      } else if (request.size() < total) {
        response = PlainResponse(400, "incomplete request body\n");
      } else {
        HttpRequest parsed;
        parsed.method = std::move(head->method);
        parsed.path = std::move(head->path);
        parsed.query = std::move(head->query);
        parsed.headers = std::move(head->headers);
        parsed.body = request.substr(header_end + 4, body_bytes);
        response = Dispatch(parsed).Render();
        scrapes.Increment();
      }
    }
  }
  if (!response.empty() && !SendAll(fd, response, write_deadline)) {
    write_timeouts.Increment();
  }
}

HttpResponse TelemetryServer::Dispatch(const HttpRequest& request) const {
  // An empty path (HandlePath("")) has always meant the index.
  HttpRequest normalized;
  const HttpRequest* effective = &request;
  if (request.path.empty()) {
    normalized = request;
    normalized.path = "/";
    effective = &normalized;
  }

  std::shared_ptr<HttpHandler> handler;
  bool path_claimed = false;
  {
    std::lock_guard<std::mutex> lock(routes_mutex_);
    // Longest claiming prefix wins; among routes tied at that prefix the
    // method must match, otherwise the request is answered 405.
    size_t best_len = 0;
    for (const Route& route : routes_) {
      if (!PrefixClaims(route.prefix, effective->path)) continue;
      path_claimed = true;
      if (route.prefix.size() > best_len) {
        best_len = route.prefix.size();
        handler = nullptr;
      }
      if (route.prefix.size() == best_len && route.method == effective->method) {
        handler = route.handler;
      }
    }
  }

  HttpResponse response;
  if (handler != nullptr) {
    (*handler)(*effective, &response);
  } else if (path_claimed) {
    response.Text(405, "method not allowed: " + effective->method + "\n");
  } else {
    response.Text(404, "not found: " + effective->path + "\n");
  }
  return response;
}

std::string TelemetryServer::HandlePath(const std::string& request_path, int* http_status,
                                        std::string* content_type) const {
  HttpRequest request;
  request.method = "GET";
  request.path = request_path;
  if (const size_t q = request.path.find('?'); q != std::string::npos) {
    request.query = ParseQueryString(std::string_view(request.path).substr(q + 1));
    request.path.resize(q);
  }
  HttpResponse response = Dispatch(request);
  *http_status = response.status();
  *content_type = response.content_type();
  return response.body();
}

JsonValue TelemetryServer::StatuszDocument() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.statusz.v1"));
  doc.Set("uptime_seconds", JsonValue::Number(MonotonicSeconds() - start_seconds_));
  doc.Set("degraded", JsonValue::Bool(TelemetryDegraded()));

  RunReport::BuildInfo build = CurrentBuildInfo();
  JsonValue build_json = JsonValue::Object();
  build_json.Set("compiler", JsonValue::String(build.compiler));
  build_json.Set("build_type", JsonValue::String(build.build_type));
  build_json.Set("platform", JsonValue::String(build.platform));
  build_json.Set("cxx_standard", JsonValue::Number(static_cast<double>(build.cxx_standard)));
  doc.Set("build", build_json);

  JsonValue flags = JsonValue::Object();
  for (const auto& [key, value] : options_.flags) flags.Set(key, JsonValue::String(value));
  doc.Set("flags", flags);
  doc.Set("seed", JsonValue::Number(static_cast<double>(options_.seed)));
  doc.Set("threads", JsonValue::Number(static_cast<double>(options_.threads)));

  JsonValue ledgers = JsonValue::Array();
  for (const auto& [name, snapshot] : PrivacyLedger::SnapshotAll()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(name));
    entry.Set("budget", JsonValue::Number(snapshot.budget));
    entry.Set("spent", JsonValue::Number(snapshot.spent));
    entry.Set("remaining", JsonValue::Number(snapshot.remaining));
    entry.Set("rejected", JsonValue::Number(static_cast<double>(snapshot.rejected)));
    ledgers.Append(std::move(entry));
  }
  doc.Set("ledgers", ledgers);

  JsonValue spans = JsonValue::Array();
  for (const ActiveSpanStack& stack : ActiveSpanStacks()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("thread", JsonValue::Number(static_cast<double>(stack.thread)));
    JsonValue names = JsonValue::Array();
    for (const std::string& name : stack.spans) names.Append(JsonValue::String(name));
    entry.Set("spans", names);
    spans.Append(std::move(entry));
  }
  doc.Set("active_spans", spans);

  {
    StatuszSections& sections = StatuszSections::Global();
    std::lock_guard<std::mutex> lock(sections.mutex);
    for (const auto& [key, provider] : sections.providers) {
      doc.Set(key, provider());
    }
  }

  FlightRecorder& recorder = FlightRecorder::Global();
  JsonValue flight = JsonValue::Object();
  flight.Set("recorded", JsonValue::Number(static_cast<double>(recorder.total_recorded())));
  flight.Set("retained", JsonValue::Number(static_cast<double>(recorder.size())));
  flight.Set("dumped", JsonValue::Bool(recorder.dumped()));
  doc.Set("flight", flight);

  Profiler& profiler = Profiler::Global();
  JsonValue profiler_json = JsonValue::Object();
  profiler_json.Set("running", JsonValue::Bool(profiler.running()));
  profiler_json.Set("hz", JsonValue::Number(profiler.hz()));
  profiler_json.Set("threads_registered",
                    JsonValue::Number(static_cast<double>(profiler.threads_registered())));
  profiler_json.Set("samples", JsonValue::Number(static_cast<double>(profiler.samples_recorded())));
  profiler_json.Set("dropped", JsonValue::Number(static_cast<double>(profiler.samples_dropped())));
  doc.Set("profiler", profiler_json);

  ProcessMemory memory = ReadProcessMemory();
  ProcessCpu cpu = ReadProcessCpu();
  JsonValue process = JsonValue::Object();
  process.Set("rss_bytes", JsonValue::Number(static_cast<double>(memory.rss_bytes)));
  process.Set("peak_rss_bytes", JsonValue::Number(static_cast<double>(memory.peak_rss_bytes)));
  process.Set("cpu_user_seconds", JsonValue::Number(cpu.user_seconds));
  process.Set("cpu_system_seconds", JsonValue::Number(cpu.system_seconds));
  doc.Set("process", process);
  return doc;
}

}  // namespace ppdp::obs
