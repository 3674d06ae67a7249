#pragma once
// Non-blocking TCP encoding server (the network face of the
// EncodingService).  One event-loop thread multiplexes every connection
// with epoll (poll fallback, net/poller.h); encoding work runs on the
// service's thread pool and completion re-enters the loop through a
// wake pipe, so the loop never blocks on a job and a slow client never
// blocks a fast one.
//
// Protocol: length-prefixed JSON frames (net/frame.h).  Requests either
// carry a `cmd` ("ping", "stats", "metrics", "shutdown") or describe an
// encoding job (`path` or inline `con` text, optional `restarts`,
// `bits`, `backend`, `deadline_ms`, `id` echo).  Full spec:
// docs/SERVICE.md.
//
// Robustness under load, by design rather than by accident:
//   * Admission control — at most `max_inflight` admitted-but-unfinished
//     encoding requests; past that the server sheds immediately with
//     {"error":"overloaded","retry_after_ms":...} instead of queueing
//     without bound.
//   * Deadlines — a request's `deadline_ms` arms a timer; expiry answers
//     {"error":"deadline_exceeded"} at once and fires the job's
//     CancelToken (encoders/restart.h), so the abandoned work unwinds at
//     the next column boundary instead of burning the pool.
//   * Backpressure — a connection whose write buffer exceeds the
//     threshold stops being read (its requests queue in *its* kernel
//     socket, not in server memory); past the hard cap it is closed.
//   * Max-frame guard — an oversized frame header is rejected before the
//     body is buffered, with an error frame, then the connection closes.
//   * Idle timeout — connections with no traffic and no pending requests
//     are closed after `idle_timeout_ms`.
//   * Graceful drain — SIGTERM (via request_shutdown(), which is
//     async-signal-safe) or a `shutdown` request stops accepting,
//     answers every admitted job, flushes, then exits the loop.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/service.h"
#include "net/cluster.h"
#include "net/poller.h"

namespace picola::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral (read the bound port from port())
  /// Admitted-but-unfinished encoding requests before shedding.
  int max_inflight = 64;
  /// Suggested client back-off in the overload response.
  int retry_after_ms = 50;
  /// Close connections idle (no traffic, no pending requests) this long;
  /// 0 disables.
  int idle_timeout_ms = 0;
  /// Largest accepted request frame; responses use the same bound.  A
  /// connection stops being read once max(max_frame_bytes, 1 MiB) of
  /// responses is unsent, and is disconnected past twice that, or 8 MiB
  /// if larger.
  size_t max_frame_bytes = 1u << 20;
  /// Defaults applied to requests that omit the fields.
  int default_restarts = 4;
  int default_bits = 0;
  /// Backend for requests without a "backend" field (the per-request
  /// field accepts picola | sat | anneal | portfolio).
  portfolio::PortfolioOptions default_portfolio;
  bool self_check = false;
  /// Allow `path` requests (server-side file reads).  Inline `con`
  /// requests always work.
  bool allow_paths = true;
  /// Force the poll(2) backend (tests; epoll is the Linux default).
  bool use_poll = false;
  /// Admin HTTP listener (GET /metrics, /healthz, /statusz) on the same
  /// event loop; -1 disables, 0 binds an ephemeral port (read it back
  /// from admin_port()).  It binds to `bind_address` and keeps serving
  /// during graceful drain — that is how /healthz reports 503.
  int admin_port = -1;
  /// Log one structured JSON line per encoding request slower than this
  /// (queue-wait / encode breakdown); 0 disables.
  int slow_request_ms = 0;
  /// Sink for slow-request lines; stderr when empty.  The callback runs
  /// on the event-loop thread and must not block.
  std::function<void(const std::string&)> slow_log;
  /// Cluster membership (docs/CLUSTER.md), this node included.  When set
  /// together with `self`, an encoding request whose route_key owner is
  /// another member and which misses the local cache first `peek`s the
  /// owner's cache (off the loop, on a dedicated probe thread) and
  /// adopts a hit instead of re-encoding.  The `peek` command itself is
  /// always served, peers configured or not.  Empty = single node.
  std::vector<ClusterMember> peers;
  /// This node's member name ("host:port") — must equal peers[i].name()
  /// for exactly one i, or the cluster path stays off.
  std::string self;
  /// Connect + I/O bound for one peer peek; a slow peer must cost less
  /// than the encode it might save.
  int peer_timeout_ms = 500;
  /// The embedded EncodingService (threads, cache).  Admission control
  /// (max_inflight) bounds work before it reaches the pool.
  ServiceOptions service;
};

class Server {
 public:
  /// Binds and listens immediately (throws std::runtime_error on
  /// failure); the event loop starts with run() or start().
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0).
  uint16_t port() const;

  /// The bound admin port (resolves admin_port 0); 0 when disabled.
  uint16_t admin_port() const;

  /// Run the event loop on the calling thread until a graceful shutdown
  /// completes.
  void run();

  /// Run the event loop on a background thread (tests, benches).
  void start();

  /// Begin graceful drain: stop accepting, answer in-flight work, flush,
  /// exit.  Async-signal-safe (one atomic store + one pipe write), so a
  /// SIGTERM handler may call it directly.  Idempotent.
  void request_shutdown() noexcept;

  /// request_shutdown() and join the start() thread (no-op after run()).
  void stop();

  /// Live net/* registry (counters, gauges, the net/request latency
  /// histogram) — the only store of the server's counts; the `stats`
  /// command, /statusz and serve --tcp's `# net:` line render it.
  const obs::MetricsRegistry& metrics() const;
  /// The embedded service (its own registry rides along).
  EncodingService& service();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace picola::net
