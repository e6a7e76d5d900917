#ifndef PPDP_OBS_TELEMETRY_SERVER_H_
#define PPDP_OBS_TELEMETRY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "obs/http.h"

namespace ppdp::obs {

/// Extra /statusz sections contributed by layers above obs (the exec thread
/// pool registers itself here, the serve layer adds its queue state) — obs
/// serves them without linking against their libraries. Re-registering a
/// key replaces the provider. Providers are called on a telemetry
/// connection thread and must be thread-safe.
void RegisterStatuszSection(const std::string& key, std::function<JsonValue()> provider);

/// Process-health verdict backing /healthz: degraded when the chaos /
/// budget machinery has already recorded user-visible damage — readings
/// the ResilientChannel gave up on, loss-degraded aggregation estimates,
/// or privacy-ledger spend rejections.
bool TelemetryDegraded();

/// A small, dependency-free routed HTTP/1.1 server: blocking sockets, each
/// served by the thread that accepted it (threads are spawned on demand,
/// so one is always left in accept(), and reused; bounded, with excess
/// connections answered 503 immediately), loopback only, clean shutdown
/// that unblocks in-flight reads. Endpoints are a routing table —
/// RegisterHandler binds a (method, path prefix) to an HttpHandler, and the
/// introspection endpoints below are pre-registered through the same
/// table, so a layer above (the serve daemon) can add POST APIs or override
/// /healthz without subclassing:
///
///   /metrics   Prometheus text exposition 0.0.4 of the MetricsRegistry
///   /healthz   "ok" / "degraded" liveness probe (TelemetryDegraded)
///   /statusz   JSON: build metadata, verbatim flags, seed/threads, live
///              per-entity PrivacyLedger snapshots, registered sections
///              (thread pool ...), active TraceSpan stack per thread,
///              profiler state, process RSS + user/system CPU
///   /flightz   the current FlightRecorder ring as ppdp.flight.v1 JSON
///   /profilez  on-demand CPU profile (ppdp.profile.v1 JSON). When a
///              capture is already running (--profile_hz), serves a live
///              snapshot; otherwise starts one for ?seconds=N (default 1,
///              max 30) at ?hz=M (default 97). Concurrent captures get 503.
///   /          plain-text index of the endpoints above (404 for paths no
///              longer-prefix route claims)
///
/// Protocol guardrails: request bodies above Options::max_request_body_bytes
/// are refused with 413 before being read, a method the matched route set
/// does not serve gets 405, and a garbled request line gets 400.
///
/// Off by default everywhere: a binary that never constructs the server
/// opens no socket and pays nothing.
class TelemetryServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read the
    /// result from port() after Start).
    int port = 0;
    /// Connections accepted but not yet answered. A connection arriving
    /// while this many are unanswered gets an immediate 503 (counted by
    /// telemetry.rejected_connections) so a scrape storm cannot pile up
    /// work. The server runs at most max_connections + 1 threads: one per
    /// connection being served, and one left in accept() to refuse the
    /// rest. Flag: --http_max_conns.
    int max_connections = 8;
    /// Overall per-connection read deadline (request line + headers +
    /// body). Poll-based: a slow-loris client trickling one byte per
    /// second cannot reset it the way a per-recv timeout could — when the
    /// deadline passes the connection gets a structured 408 (counted by
    /// telemetry.read_timeouts) and is dropped.
    double read_timeout_seconds = 5.0;
    /// Per-connection response-write deadline; a client that stops
    /// draining its socket is cut off after this long (counted by
    /// telemetry.write_timeouts).
    double write_timeout_seconds = 5.0;
    /// Largest request body accepted before answering 413.
    size_t max_request_body_bytes = 1 << 20;
    /// Cap on the request line + header section, enforced before
    /// Content-Length is even known; beyond it the client gets 431.
    size_t max_header_bytes = 8192;
    /// Invocation context served verbatim on /statusz.
    std::map<std::string, std::string> flags;
    uint64_t seed = 0;
    int threads = 0;
  };

  explicit TelemetryServer(Options options);
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;
  /// Stops the server if still running.
  ~TelemetryServer();

  /// Adds `handler` for requests whose method equals `method` and whose
  /// path lies under `path_prefix` (exact match, or a '/'-separated
  /// extension: prefix "/v1/publish" claims "/v1/publish" and
  /// "/v1/publish/batch" but not "/v1/publisher"). The longest matching
  /// prefix wins; among routes with that prefix the method must match or
  /// the request is answered 405. Re-registering the same (method, prefix)
  /// replaces the handler — how the serve layer overrides /healthz.
  /// Handlers run on connection threads and must be thread-safe; may be
  /// called before or after Start.
  void RegisterHandler(const std::string& method, const std::string& path_prefix,
                       HttpHandler handler);

  /// Binds, listens, and starts the first connection thread. Fails (kUnavailable /
  /// kInvalidArgument) without leaking a socket when the port cannot be
  /// bound. Calling Start twice is an error.
  Status Start();

  /// Clean shutdown: stops accepting (every thread blocked in accept()
  /// wakes), unblocks every in-flight connection's read (a response already
  /// being written still completes within the write deadline), joins all
  /// threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the resolved one when Options::port was 0); 0 before
  /// Start.
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Routes `request` through the registered handler table exactly as a
  /// socket request would — including the 404/405 fallbacks — without a
  /// socket. Exposed so tests can golden-check endpoints cheaply.
  HttpResponse Dispatch(const HttpRequest& request) const;

  /// Dispatches `request_path` (query string included, e.g.
  /// "/profilez?seconds=1") exactly as a GET request would, without a
  /// socket — the response body plus the HTTP status and content type that
  /// would be sent. Convenience wrapper over Dispatch.
  std::string HandlePath(const std::string& request_path, int* http_status,
                         std::string* content_type) const;

  /// The /statusz document (schema "ppdp.statusz.v1").
  JsonValue StatuszDocument() const;

 private:
  struct Route {
    std::string method;
    std::string prefix;
    std::shared_ptr<HttpHandler> handler;
  };

  void RegisterBuiltinRoutes();
  void HandleProfilez(const HttpRequest& request, HttpResponse* response) const;
  /// A connection thread: accepts a connection and serves it, until Stop.
  void ConnectionLoop();
  /// Reads one request from `fd`, dispatches it and writes the response.
  void HandleConnection(int fd);

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> port_{0};
  int listen_fd_ = -1;
  double start_seconds_ = 0.0;  ///< MonotonicSeconds at Start
  mutable std::mutex routes_mutex_;
  std::vector<Route> routes_;
  std::mutex connections_mutex_;  ///< guards the connection state below
  /// Threads not serving a connection: in accept(), or on their way to it.
  size_t idle_threads_ = 0;
  /// Accepted and not yet answered: they fill the max_connections slots
  /// (Stop shuts their read sides down).
  std::vector<int> serving_;
  // Threads last: they use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace ppdp::obs

#endif  // PPDP_OBS_TELEMETRY_SERVER_H_
