#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/hex.h"
#include "base/problem_io.h"
#include "encoders/restart.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/json.h"
#include "net/protocol.h"
#include "net/sys.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "persist/codec.h"
#include "service/job.h"

namespace picola::net {

namespace {

/// Flushing grace once drain has answered every job; a client that never
/// reads its socket cannot park the shutdown forever.
constexpr uint64_t kDrainFlushGraceNs = 5'000'000'000ULL;

void set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Peek records (persist/codec.h binary) travel inside JSON strings as
/// lowercase hex — the frame protocol is UTF-8 JSON, raw bytes are not.
std::string hex_encode(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

bool hex_decode(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi, lo;
    auto val = [](char ch, int* d) {
      if (ch >= '0' && ch <= '9') *d = ch - '0';
      else if (ch >= 'a' && ch <= 'f') *d = ch - 'a' + 10;
      else if (ch >= 'A' && ch <= 'F') *d = ch - 'A' + 10;
      else return false;
      return true;
    };
    if (!val(hex[i], &hi) || !val(hex[i + 1], &lo)) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Largest accepted admin HTTP request (request line + headers).
constexpr size_t kAdminRequestMax = 8192;

std::string http_response(int code, const char* reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::string r = "HTTP/1.0 " + std::to_string(code) + " " + reason + "\r\n";
  r += "Content-Type: " + content_type + "\r\n";
  r += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  r += "Connection: close\r\n\r\n";
  r += body;
  return r;
}

}  // namespace

struct Server::Impl {
  struct Conn {
    int fd = -1;
    uint64_t serial = 0;
    FrameReader reader;
    std::string wbuf;
    size_t woff = 0;
    uint64_t last_activity_ns = 0;
    int pending = 0;           ///< admitted requests awaiting a response
    bool want_write = false;   ///< current poller interest
    bool paused_read = false;  ///< backpressure: write buffer too deep
    bool close_after_flush = false;
    bool marked_close = false;

    explicit Conn(size_t max_frame) : reader(max_frame) {}
    size_t unsent() const { return wbuf.size() - woff; }
  };

  /// One admin HTTP connection: read a GET request, write one response,
  /// close.  Same poller, same loop thread, same sys:: fault points as
  /// the frame protocol.
  struct AdminConn {
    int fd = -1;
    std::string in;    ///< request bytes until the blank line
    std::string out;   ///< full response; close once flushed
    size_t off = 0;
    bool responding = false;  ///< headers parsed, out holds the response
    bool marked_close = false;
    size_t unsent() const { return out.size() - off; }
  };

  struct Request {
    uint64_t serial = 0;
    int conn_fd = -1;
    uint64_t conn_serial = 0;
    JsonValue id;  ///< echoed verbatim (null = absent)
    ConstraintSet set;
    std::shared_ptr<CancelToken> cancel;
    uint64_t deadline_ns = 0;  ///< absolute obs::now_ns() deadline, 0 = none
    int deadline_ms = 0;       ///< as requested, for the error frame
    uint64_t start_ns = 0;
    uint64_t trace_id = 0;     ///< wire-propagated correlation id, 0 = none
    uint64_t parent_span = 0;  ///< opaque client span id (slow log only)
    bool answered = false;  ///< deadline already produced the response
  };

  /// One off-owner job handed to the peer-probe thread (peek the ring
  /// owner's cache, then submit).
  struct ProbeTask {
    uint64_t serial = 0;
    Job job;
    int owner = -1;
  };

  explicit Impl(const ServerOptions& options)
      : opt_(sanitized(options)),
        service_(opt_.service),
        poller_(opt_.use_poll ? PollBackend::kPoll : default_poll_backend()),
        accepted_(registry_.counter("net/connections_accepted")),
        closed_(registry_.counter("net/connections_closed")),
        idle_closed_(registry_.counter("net/idle_closed")),
        slow_closed_(registry_.counter("net/slow_client_closed")),
        frames_in_(registry_.counter("net/frames_in")),
        frames_out_(registry_.counter("net/frames_out")),
        admitted_(registry_.counter("net/requests_admitted")),
        responses_ok_(registry_.counter("net/responses_ok")),
        responses_error_(registry_.counter("net/responses_error")),
        sheds_(registry_.counter("net/sheds")),
        deadline_misses_(registry_.counter("net/deadline_misses")),
        cancelled_jobs_(registry_.counter("net/cancelled_jobs")),
        frame_errors_(registry_.counter("net/frame_errors")),
        wakeups_(registry_.counter("net/wakeups")),
        wakeup_reads_(registry_.counter("net/wakeup_reads")),
        completions_(registry_.counter("net/completions")),
        admin_requests_(registry_.counter("net/admin_requests")),
        slow_requests_(registry_.counter("net/slow_requests")),
        peek_attempts_(registry_.counter("cluster/peek_attempts")),
        forwarded_hits_(registry_.counter("cluster/forwarded_hits")),
        peek_misses_(registry_.counter("cluster/peek_misses")),
        peek_failures_(registry_.counter("cluster/peek_failures")),
        peeks_served_(registry_.counter("cluster/peeks_served")),
        active_(registry_.gauge("net/connections_active")),
        inflight_(registry_.gauge("net/inflight")),
        uptime_seconds_(registry_.gauge("net/uptime_seconds")),
        request_ns_(registry_.histogram("net/request")),
        start_ns_(obs::now_ns()) {
    open_listener();
    open_wake_pipe();
    if (opt_.admin_port >= 0) open_admin_listener();
    poller_.add(listen_fd_, /*read=*/true, /*write=*/false);
    poller_.add(wake_rd_, /*read=*/true, /*write=*/false);
    if (admin_listen_fd_ >= 0)
      poller_.add(admin_listen_fd_, /*read=*/true, /*write=*/false);
    if (!opt_.peers.empty() && !opt_.self.empty()) {
      std::vector<std::string> names;
      names.reserve(opt_.peers.size());
      for (size_t i = 0; i < opt_.peers.size(); ++i) {
        names.push_back(opt_.peers[i].name());
        if (names.back() == opt_.self) self_index_ = static_cast<int>(i);
      }
      if (self_index_ >= 0 && opt_.peers.size() > 1 && opt_.peer_forward) {
        peer_ring_ = std::make_unique<HashRing>(names);
        peer_clients_.resize(opt_.peers.size());
        probe_thread_ = std::thread([this] { probe_loop(); });
      }
    }
  }

  ~Impl() {
    stop_probe_thread();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (admin_listen_fd_ >= 0) ::close(admin_listen_fd_);
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
    for (auto& [fd, conn] : conns_) ::close(fd);
    for (auto& [fd, conn] : admin_conns_) ::close(fd);
  }

  static ServerOptions sanitized(ServerOptions o) {
    // A bounded pool queue would block the event loop inside post();
    // admission control (max_inflight) is the queue bound here.
    o.service.max_queue = 0;
    o.max_inflight = std::max(1, o.max_inflight);
    o.max_frame_bytes =
        std::min(std::max<size_t>(o.max_frame_bytes, 64), kFrameAbsoluteMax);
    o.write_backpressure_bytes = std::max<size_t>(o.write_backpressure_bytes,
                                                  o.max_frame_bytes);
    o.max_write_buffer_bytes = std::max(o.max_write_buffer_bytes,
                                        o.write_backpressure_bytes * 2);
    o.default_restarts = std::max(1, o.default_restarts);
    return o;
  }

  void open_listener() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      throw std::runtime_error("socket: " + std::string(strerror(errno)));
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opt_.port);
    if (::inet_pton(AF_INET, opt_.bind_address.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("bad bind address " + opt_.bind_address);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0)
      throw std::runtime_error("bind " + opt_.bind_address + ":" +
                               std::to_string(opt_.port) + ": " +
                               strerror(errno));
    if (::listen(listen_fd_, 256) != 0)
      throw std::runtime_error("listen: " + std::string(strerror(errno)));
    set_nonblocking(listen_fd_);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  }

  void open_admin_listener() {
    admin_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (admin_listen_fd_ < 0)
      throw std::runtime_error("admin socket: " +
                               std::string(strerror(errno)));
    int one = 1;
    ::setsockopt(admin_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(opt_.admin_port));
    if (::inet_pton(AF_INET, opt_.bind_address.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("bad bind address " + opt_.bind_address);
    if (::bind(admin_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw std::runtime_error("admin bind " + opt_.bind_address + ":" +
                               std::to_string(opt_.admin_port) + ": " +
                               strerror(errno));
    if (::listen(admin_listen_fd_, 64) != 0)
      throw std::runtime_error("admin listen: " +
                               std::string(strerror(errno)));
    set_nonblocking(admin_listen_fd_);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(admin_listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    admin_port_ = ntohs(bound.sin_port);
  }

  void open_wake_pipe() {
    int fds[2];
    if (::pipe(fds) != 0)
      throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    wake_rd_ = fds[0];
    wake_wr_ = fds[1];
    set_nonblocking(wake_rd_);
    set_nonblocking(wake_wr_);
  }

  /// Async-signal-safe: one relaxed fetch_add and one write(2).  Raw
  /// ::write on purpose — the sys:: shim takes a mutex and must not run
  /// inside a signal handler; wake_calls_ is a raw atomic (not a striped
  /// Counter, whose thread-local stripe pick is not signal-safe) that the
  /// loop folds into net/wakeups when it drains the pipe.
  void wake() noexcept {
    wake_calls_.fetch_add(1, std::memory_order_relaxed);
    char b = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
    // EAGAIN means a wake byte is already pending — good enough.
  }

  void request_shutdown() noexcept {
    shutdown_requested_.store(true, std::memory_order_relaxed);
    wake();
  }

  // ---- event loop ------------------------------------------------------

  void run() {
    std::vector<PollEvent> events;
    while (!finished_) {
      poller_.wait(&events, next_timeout_ms());
      const uint64_t now = obs::now_ns();
      if (shutdown_requested_.load(std::memory_order_relaxed) && !draining_)
        begin_drain();
      for (const PollEvent& e : events) {
        if (e.fd == wake_rd_) {
          drain_wake_pipe();
          if (shutdown_requested_.load(std::memory_order_relaxed) &&
              !draining_)
            begin_drain();
          continue;
        }
        if (e.fd == listen_fd_) {
          accept_all();
          continue;
        }
        if (admin_listen_fd_ >= 0 && e.fd == admin_listen_fd_) {
          accept_admin();
          continue;
        }
        auto ait = admin_conns_.find(e.fd);
        if (ait != admin_conns_.end()) {
          AdminConn* ac = ait->second.get();
          if (e.hangup) ac->marked_close = true;
          if (e.writable && !ac->marked_close) admin_flush(ac);
          if (e.readable && !ac->marked_close) admin_readable(ac);
          continue;
        }
        auto it = conns_.find(e.fd);
        if (it == conns_.end()) continue;
        Conn* conn = it->second.get();
        if (e.hangup) conn->marked_close = true;
        if (e.writable && !conn->marked_close) on_writable(conn);
        if (e.readable && !conn->marked_close) on_readable(conn);
      }
      drain_completions();
      expire_deadlines(now);
      sweep_idle(now);
      process_deferred_closes();
      process_admin_closes();
      // Periodic cache durability: a no-op unless a snapshot interval
      // elapsed with changes (persist/store.h).  Normally finish_job
      // snapshots on the worker that completed a job; this sweep covers
      // the traffic-went-quiet case so the last inserts still reach the
      // snapshot without waiting for shutdown.
      service_.maybe_snapshot();
      check_drain_done(now);
    }
  }

  int next_timeout_ms() const {
    uint64_t next = UINT64_MAX;
    if (!deadlines_.empty()) next = deadlines_.begin()->first;
    if (opt_.idle_timeout_ms > 0 && !conns_.empty()) {
      uint64_t idle_step =
          obs::now_ns() + static_cast<uint64_t>(opt_.idle_timeout_ms) * 250'000;
      next = std::min(next, idle_step);  // sweep at 1/4 the idle period
    }
    if (draining_)
      next = std::min<uint64_t>(next, obs::now_ns() + 100'000'000ULL);
    // With persistence on, wake at least once per snapshot interval so
    // the idle-sweep snapshot above actually runs on an idle server.
    if (service_.store() && opt_.service.snapshot_interval_s > 0)
      next = std::min<uint64_t>(
          next, obs::now_ns() +
                    static_cast<uint64_t>(opt_.service.snapshot_interval_s) *
                        1'000'000'000ULL);
    if (next == UINT64_MAX) return -1;
    uint64_t now = obs::now_ns();
    if (next <= now) return 0;
    return static_cast<int>(std::min<uint64_t>((next - now) / 1'000'000 + 1,
                                               60'000));
  }

  void drain_wake_pipe() {
    // One pipe read may coalesce many wake() calls — net/wakeups vs
    // net/wakeup_reads is the coalescing ratio (docs/OBSERVABILITY.md).
    wakeup_reads_.add(1);
    wakeups_.add(wake_calls_.exchange(0, std::memory_order_relaxed));
    char buf[256];
    for (;;) {
      ssize_t k = sys::read(wake_rd_, buf, sizeof buf);
      if (k > 0) continue;
      if (k < 0 && errno == EINTR) continue;  // a pending byte must not
      break;                                  // survive an EINTR storm
    }
  }

  void accept_all() {
    if (draining_) return;
    for (;;) {
      int fd = sys::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // The peer gave up between connect and accept — not our error.
        if (errno == ECONNABORTED) continue;
        break;  // EAGAIN or transient error
      }
      set_nonblocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_unique<Conn>(opt_.max_frame_bytes);
      conn->fd = fd;
      conn->serial = ++conn_serial_;
      conn->last_activity_ns = obs::now_ns();
      poller_.add(fd, /*read=*/true, /*write=*/false);
      conns_.emplace(fd, std::move(conn));
      accepted_.add(1);
      active_.set(static_cast<int64_t>(conns_.size()));
    }
  }

  // ---- admin HTTP plane ------------------------------------------------

  /// Unlike accept_all this keeps accepting during drain: health probes
  /// must see the 503 while the server is still answering work.
  void accept_admin() {
    for (;;) {
      int fd = sys::accept(admin_listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNABORTED) continue;
        break;
      }
      set_nonblocking(fd);
      auto conn = std::make_unique<AdminConn>();
      conn->fd = fd;
      poller_.add(fd, /*read=*/true, /*write=*/false);
      admin_conns_.emplace(fd, std::move(conn));
    }
  }

  void admin_readable(AdminConn* ac) {
    char buf[4096];
    for (;;) {
      ssize_t k = sys::read(ac->fd, buf, sizeof buf);
      if (k > 0) {
        if (ac->responding) continue;  // pipelined bytes are ignored
        ac->in.append(buf, static_cast<size_t>(k));
        if (ac->in.size() > kAdminRequestMax) {
          admin_respond(ac, http_response(400, "Bad Request", "text/plain",
                                          "request too large\n"));
          return;
        }
        if (ac->in.find("\r\n\r\n") != std::string::npos ||
            ac->in.find("\n\n") != std::string::npos) {
          handle_admin_request(ac);
          return;
        }
        continue;
      }
      if (k == 0) {
        ac->marked_close = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) ac->marked_close = true;
      break;
    }
  }

  void handle_admin_request(AdminConn* ac) {
    admin_requests_.add(1);
    // Request line: METHOD SP PATH SP VERSION.  Headers are ignored.
    size_t eol = ac->in.find_first_of("\r\n");
    std::string line = ac->in.substr(0, eol);
    size_t sp1 = line.find(' ');
    size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 <= sp1) {
      admin_respond(ac, http_response(400, "Bad Request", "text/plain",
                                      "malformed request line\n"));
      return;
    }
    std::string method = line.substr(0, sp1);
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (size_t q = path.find('?'); q != std::string::npos) path.resize(q);
    if (method != "GET") {
      admin_respond(ac, http_response(405, "Method Not Allowed", "text/plain",
                                      "only GET is supported\n"));
      return;
    }
    if (path == "/healthz") {
      admin_respond(ac, draining_
                            ? http_response(503, "Service Unavailable",
                                            "text/plain", "draining\n")
                            : http_response(200, "OK", "text/plain", "ok\n"));
      return;
    }
    if (path == "/metrics") {
      refresh_gauges();
      std::string body = obs::prometheus_text(
          {&registry_, &service_.metrics(), &obs::MetricsRegistry::global()});
      admin_respond(ac,
                    http_response(200, "OK",
                                  "text/plain; version=0.0.4; charset=utf-8",
                                  body));
      return;
    }
    if (path == "/statusz") {
      admin_respond(ac, http_response(200, "OK", "application/json",
                                      statusz_json()));
      return;
    }
    admin_respond(ac, http_response(404, "Not Found", "text/plain",
                                    "try /metrics, /healthz or /statusz\n"));
  }

  void admin_respond(AdminConn* ac, std::string response) {
    ac->responding = true;
    ac->in.clear();
    ac->out = std::move(response);
    ac->off = 0;
    admin_flush(ac);
  }

  void admin_flush(AdminConn* ac) {
    while (ac->off < ac->out.size()) {
      ssize_t k = sys::send_nosig(ac->fd, ac->out.data() + ac->off,
                                  ac->out.size() - ac->off);
      if (k > 0) {
        ac->off += static_cast<size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        poller_.set(ac->fd, /*read=*/false, /*write=*/true);
        return;
      }
      ac->marked_close = true;  // broken pipe etc.
      return;
    }
    if (ac->responding) ac->marked_close = true;  // one response, then close
  }

  void process_admin_closes() {
    for (auto it = admin_conns_.begin(); it != admin_conns_.end();) {
      if (!it->second->marked_close) {
        ++it;
        continue;
      }
      poller_.remove(it->second->fd);
      sys::close(it->second->fd);
      it = admin_conns_.erase(it);
    }
  }

  void refresh_gauges() {
    service_.refresh_gauges();
    uint64_t now = obs::now_ns();
    uint64_t up = now > start_ns_ ? now - start_ns_ : 0;
    uptime_seconds_.set(static_cast<int64_t>(up / 1'000'000'000ULL));
  }

  std::string statusz_json() {
    refresh_gauges();
    const ResultCache& cache = service_.cache();
    const obs::MetricsRegistry& sm = service_.metrics();
    auto gauge = [&sm](const char* name) {
      return std::to_string(sm.gauge_value(name));
    };
    std::string j = "{";
    j += "\"uptime_seconds\":" +
         std::to_string(uptime_seconds_.value()) + ",";
    j += "\"build\":" + obs::build_info_json() + ",";
    j += std::string("\"draining\":") + (draining_ ? "true" : "false") + ",";
    j += "\"inflight\":" + std::to_string(inflight_.value()) + ",";
    j += "\"connections_active\":" + std::to_string(active_.value()) + ",";
    j += "\"cache\":{\"entries\":" + gauge("cache/entries") +
         ",\"capacity\":" + std::to_string(cache.capacity()) +
         ",\"shards\":" + std::to_string(cache.num_shards()) + "},";
    j += "\"backends\":{\"picola\":" +
         std::to_string(sm.counter_value("service/backend_picola")) +
         ",\"sat\":" +
         std::to_string(sm.counter_value("service/backend_sat")) +
         ",\"anneal\":" +
         std::to_string(sm.counter_value("service/backend_anneal")) + "},";
    if (const persist::CacheStore* store = service_.store()) {
      j += "\"persist\":{\"dir\":" +
           JsonValue::make_string(store->dir()).dump() +
           ",\"epoch\":" + gauge("persist/epoch") + ",\"snapshots\":" +
           std::to_string(sm.counter_value("persist/snapshots")) +
           ",\"snapshot_age_seconds\":" +
           gauge("persist/snapshot_age_seconds") +
           ",\"journal_bytes\":" + gauge("persist/journal_bytes") +
           ",\"records_loaded\":" + gauge("persist/records_loaded") +
           ",\"journal_replayed\":" + gauge("persist/journal_replayed") +
           ",\"torn_tail_recovered\":" +
           (sm.gauge_value("persist/torn_tail") ? "true" : "false") +
           ",\"recovery\":\"" +
           persist::recovery_outcome_name(static_cast<persist::RecoveryOutcome>(
               sm.gauge_value("persist/recovery_outcome"))) +
           "\"},";
    }
    if (peer_ring_) {
      j += "\"cluster\":{\"self\":" + JsonValue::make_string(opt_.self).dump() +
           ",\"members\":" + std::to_string(opt_.peers.size()) +
           ",\"peek_attempts\":" + std::to_string(peek_attempts_.value()) +
           ",\"forwarded_hits\":" + std::to_string(forwarded_hits_.value()) +
           ",\"peeks_served\":" + std::to_string(peeks_served_.value()) + "},";
    }
    j += "\"service\":" + service_.stats_json() + "}";
    return j;
  }

  void on_readable(Conn* conn) {
    char buf[65536];
    for (;;) {
      ssize_t k = sys::read(conn->fd, buf, sizeof buf);
      if (k > 0) {
        conn->last_activity_ns = obs::now_ns();
        if (!conn->reader.feed(buf, static_cast<size_t>(k))) {
          on_frame_error(conn);
          break;
        }
        while (auto payload = conn->reader.next()) {
          handle_frame(conn, *payload);
          if (conn->marked_close) return;
        }
        if (conn->paused_read) break;  // backpressure engaged mid-burst
        continue;
      }
      if (k == 0) {  // peer closed
        conn->marked_close = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) conn->marked_close = true;
      break;
    }
  }

  void on_frame_error(Conn* conn) {
    frame_errors_.add(1);
    JsonValue err = JsonValue::make_object();
    err.set("error", JsonValue::make_string("frame_too_large"));
    err.set("max_frame_bytes",
            JsonValue::make_int(static_cast<int64_t>(opt_.max_frame_bytes)));
    err.set("declared_bytes",
            JsonValue::make_int(
                static_cast<int64_t>(conn->reader.oversized_length())));
    // Framing is lost; stop reading and close once the error is flushed.
    // The flag must be set before send_json — an inline flush completes
    // the close immediately.
    conn->close_after_flush = true;
    update_interest(conn, /*read=*/false);
    send_json(conn, err.dump());
    responses_error_.add(1);
  }

  // ---- frame handling --------------------------------------------------

  void handle_frame(Conn* conn, const std::string& payload) {
    frames_in_.add(1);
    // The request clock starts here, so deadline_ms, net/request and the
    // slow log cover the JSON parse and the problem parse (for KISS2 the
    // whole face-constraint derivation) too.
    const uint64_t start_ns = obs::now_ns();
    std::string parse_error;
    auto parsed = JsonValue::parse(payload, &parse_error);
    if (!parsed || !parsed->is_object()) {
      send_error(conn, JsonValue(), "bad_request",
                 parsed ? "request must be a JSON object" : parse_error);
      return;
    }
    const JsonValue& req = *parsed;
    JsonValue id = req.find("id") ? *req.find("id") : JsonValue();

    if (const JsonValue* cmd = req.find("cmd")) {
      if (!cmd->is_string()) {
        send_error(conn, id, "bad_request", "cmd must be a string");
        return;
      }
      handle_cmd(conn, id, cmd->as_string(), req);
      return;
    }
    handle_encode(conn, std::move(id), req, start_ns);
  }

  void handle_cmd(Conn* conn, const JsonValue& id, const std::string& cmd,
                  const JsonValue& req) {
    if (cmd == "ping") {
      JsonValue r = ok_response(id);
      r.set("pong", JsonValue::make_bool(true));
      send_json(conn, r.dump());
      responses_ok_.add(1);
      return;
    }
    if (cmd == "stats") {
      std::string body = "{";
      if (!id.is_null()) body += "\"id\":" + id.dump() + ",";
      body += "\"ok\":true,\"net\":" + net_stats_json() +
              ",\"service\":" + service_.stats_json() + "}";
      send_json(conn, body);
      responses_ok_.add(1);
      return;
    }
    if (cmd == "metrics") {
      refresh_gauges();
      std::string body = "{";
      if (!id.is_null()) body += "\"id\":" + id.dump() + ",";
      body += "\"ok\":true,\"build\":" + obs::build_info_json() +
              ",\"net\":" + registry_.report_json() +
              ",\"service\":" + service_.metrics().report_json() +
              ",\"process\":" + obs::MetricsRegistry::global().report_json() +
              "}";
      send_json(conn, body);
      responses_ok_.add(1);
      return;
    }
    if (cmd == "peek") {
      // Cluster cache peek (docs/CLUSTER.md): a peer asks whether this
      // node has `fp` memoised.  Served during drain too — a draining
      // node's cache is exactly what a restarting peer wants to read.
      const JsonValue* fp = req.find("fp");
      uint64_t fingerprint = 0;
      if (!fp || !fp->is_string() ||
          !parse_hex64(fp->as_string(), &fingerprint)) {
        send_error(conn, id, "bad_request",
                   "peek needs an \"fp\" field of 1-16 hex digits");
        return;
      }
      peeks_served_.add(1);
      JsonValue r = ok_response(id);
      if (auto record = service_.peek_record(fingerprint)) {
        r.set("hit", JsonValue::make_bool(true));
        r.set("record", JsonValue::make_string(hex_encode(*record)));
      } else {
        r.set("hit", JsonValue::make_bool(false));
      }
      send_json(conn, r.dump());
      responses_ok_.add(1);
      return;
    }
    if (cmd == "shutdown") {
      JsonValue r = ok_response(id);
      r.set("draining", JsonValue::make_bool(true));
      send_json(conn, r.dump());
      responses_ok_.add(1);
      begin_drain();
      return;
    }
    send_error(conn, id, "bad_request", "unknown cmd " + cmd);
  }

  void handle_encode(Conn* conn, JsonValue id, const JsonValue& json,
                     uint64_t start_ns) {
    if (draining_) {
      send_error(conn, id, "shutting_down", "server is draining");
      return;
    }
    // Load shedding before any parsing: overload must be the cheapest
    // possible path.
    if (static_cast<int>(requests_.size()) >= opt_.max_inflight) {
      sheds_.add(1);
      JsonValue r = JsonValue::make_object();
      if (!id.is_null()) r.set("id", id);
      r.set("error", JsonValue::make_string("overloaded"));
      r.set("retry_after_ms", JsonValue::make_int(opt_.retry_after_ms));
      send_json(conn, r.dump());
      responses_error_.add(1);
      return;
    }

    std::string error;
    std::optional<EncodeRequest> req = EncodeRequest::from_json(json, &error);
    if (!req) {
      send_error(conn, id, "bad_request", error);
      return;
    }
    if (!req->con && !opt_.allow_paths) {
      send_error(conn, id, "paths_disabled",
                 "server rejects path requests; send inline \"con\" text");
      return;
    }
    std::optional<Problem> problem =
        req->con ? parse_problem_text(*req->con, &error)
                 : load_problem_file(*req->path, &error);
    if (!problem) {
      send_error(conn, id, "bad_problem", error);
      return;
    }
    const uint64_t deadline_ns =
        req->deadline_ms > 0
            ? start_ns + static_cast<uint64_t>(req->deadline_ms) * 1'000'000
            : 0;
    if (deadline_ns && obs::now_ns() >= deadline_ns) {
      // Parsing alone used up the deadline: answer now, submit nothing.
      deadline_misses_.add(1);
      send_deadline_exceeded(conn, id, req->deadline_ms);
      return;
    }

    Request r;
    r.serial = ++request_serial_;
    r.conn_fd = conn->fd;
    r.conn_serial = conn->serial;
    r.id = std::move(id);
    r.set = problem->set;
    r.cancel = std::make_shared<CancelToken>();
    r.start_ns = start_ns;
    r.deadline_ns = deadline_ns;
    r.deadline_ms = req->deadline_ms;
    r.trace_id = req->trace_id;
    r.parent_span = req->parent_span;

    Job job;
    job.set = std::move(problem->set);
    job.options.num_bits = req->bits.value_or(opt_.default_bits);
    job.options.self_check = opt_.self_check;
    job.options.cancel = r.cancel;
    job.portfolio = opt_.default_portfolio;
    if (req->backend) job.portfolio.backend = *req->backend;
    job.restarts = req->restarts.value_or(opt_.default_restarts);
    job.tag = req->path.value_or("<inline>");
    job.trace_id = req->trace_id;

    const uint64_t serial = r.serial;
    if (r.deadline_ns) deadlines_.emplace(r.deadline_ns, serial);
    requests_.emplace(serial, std::move(r));
    conn->pending++;
    admitted_.add(1);
    inflight_.set(static_cast<int64_t>(requests_.size()));

    // Cluster path: a job whose ring owner is another member detours
    // through the probe thread, which peeks the owner's cache before
    // submitting (docs/CLUSTER.md).  The loop never blocks on a peer.
    if (peer_ring_) {
      const int owner = peer_ring_->owner(route_key(job.set));
      if (owner != self_index_) {
        {
          std::lock_guard<std::mutex> lock(probe_mu_);
          probe_q_.push_back(ProbeTask{serial, std::move(job), owner});
        }
        probe_cv_.notify_one();
        return;
      }
    }

    // The callback runs on whichever thread finishes the job (inline on a
    // cache hit); it only enqueues and wakes the loop.
    try {
      service_.submit(std::move(job),
                      [this, serial](std::shared_future<JobResult> fut) {
                        {
                          std::lock_guard<std::mutex> lock(done_mu_);
                          done_.emplace_back(serial, std::move(fut));
                        }
                        wake();
                      });
    } catch (const std::exception& e) {
      // submit() itself failed (allocation, canonicalisation): the
      // admitted request still gets its one reply, right now.
      JsonValue echoed_id;
      auto it = requests_.find(serial);
      if (it != requests_.end()) {
        echoed_id = std::move(it->second.id);
        if (it->second.deadline_ns) {
          auto range = deadlines_.equal_range(it->second.deadline_ns);
          for (auto d = range.first; d != range.second; ++d)
            if (d->second == serial) {
              deadlines_.erase(d);
              break;
            }
        }
        requests_.erase(it);
      }
      inflight_.set(static_cast<int64_t>(requests_.size()));
      conn->pending--;
      send_error(conn, echoed_id, "internal_error", e.what());
    }
  }

  // ---- peer cache-hit forwarding (docs/CLUSTER.md) ----------------------

  /// Dedicated probe thread: owns the per-peer Clients, peeks the ring
  /// owner's cache on off-owner jobs, adopts hits, then submits — the
  /// job completes through the same done_ queue either way.  Bounded
  /// blocking only (peer_timeout_ms per peek).
  void probe_loop() {
    for (;;) {
      ProbeTask task;
      {
        std::unique_lock<std::mutex> lock(probe_mu_);
        probe_cv_.wait(lock,
                       [this] { return probe_stop_ || !probe_q_.empty(); });
        if (probe_q_.empty()) return;  // stopped and fully drained
        task = std::move(probe_q_.front());
        probe_q_.pop_front();
      }
      run_probe(std::move(task));
    }
  }

  void run_probe(ProbeTask task) {
    const uint64_t serial = task.serial;
    try {
      CanonicalJob canon = canonicalize(task.job);
      if (!service_.is_cached(canon))
        maybe_adopt_from_peer(canon, task.owner);
    } catch (const std::exception&) {
      // Canonicalisation failed; submit() below will fail the same way
      // and the request gets its one error reply through finish_request.
    }
    auto complete = [this, serial](std::shared_future<JobResult> fut) {
      {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_.emplace_back(serial, std::move(fut));
      }
      wake();
    };
    try {
      service_.submit(std::move(task.job), complete);
    } catch (const std::exception&) {
      // Unlike the loop-thread submit path this cannot answer inline —
      // conns_/requests_ belong to the loop — so the exception rides a
      // ready future through the normal completion queue instead.
      std::promise<JobResult> p;
      p.set_exception(std::current_exception());
      complete(p.get_future().share());
    }
  }

  void maybe_adopt_from_peer(const CanonicalJob& canon, int owner) {
    peek_attempts_.add(1);
    if (PICOLA_FAULT_POINT("cluster/peek").kind == fault::Kind::kFail) {
      peek_failures_.add(1);
      return;
    }
    const ClusterMember& m = opt_.peers[static_cast<size_t>(owner)];
    auto& slot = peer_clients_[static_cast<size_t>(owner)];
    if (!slot) {
      ClientOptions co;
      co.connect_timeout_ms = opt_.peer_timeout_ms;
      co.io_timeout_ms = opt_.peer_timeout_ms;
      slot = std::make_unique<Client>(co);
    }
    std::string error;
    if (!slot->connected() && !slot->connect(m.host, m.port, &error)) {
      peek_failures_.add(1);
      return;
    }
    JsonValue req = JsonValue::make_object();
    req.set("cmd", JsonValue::make_string("peek"));
    req.set("fp", JsonValue::make_string(hex64(canon.fingerprint)));
    auto reply = slot->call(req, &error);
    if (!reply) {
      slot->close();  // transport state is unknown; reconnect next time
      peek_failures_.add(1);
      return;
    }
    const JsonValue* hit = reply->find("hit");
    if (!hit || !hit->is_bool()) {
      peek_failures_.add(1);
      return;
    }
    if (!hit->as_bool()) {
      peek_misses_.add(1);
      return;
    }
    const JsonValue* record = reply->find("record");
    std::string bytes;
    CanonicalJob peer_job;
    CachedResult peer_result;
    // The record is re-canonicalised by decode_record and deep-compared
    // against what WE would have computed — a peer can hand us a stale
    // or colliding record and the worst case is a normal encode.
    if (!record || !record->is_string() ||
        !hex_decode(record->as_string(), &bytes) ||
        !persist::decode_record(bytes, &peer_job, &peer_result, &error) ||
        !peer_job.equivalent(canon)) {
      peek_failures_.add(1);
      return;
    }
    service_.adopt(peer_job, std::move(peer_result));
    forwarded_hits_.add(1);
  }

  void stop_probe_thread() {
    {
      std::lock_guard<std::mutex> lock(probe_mu_);
      probe_stop_ = true;
    }
    probe_cv_.notify_all();
    if (probe_thread_.joinable()) probe_thread_.join();
  }

  // ---- completions, deadlines, idle, drain -----------------------------

  void drain_completions() {
    std::vector<std::pair<uint64_t, std::shared_future<JobResult>>> done;
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done.swap(done_);
    }
    completions_.add(static_cast<uint64_t>(done.size()));
    for (auto& [serial, fut] : done) finish_request(serial, fut);
  }

  void finish_request(uint64_t serial,
                      const std::shared_future<JobResult>& fut) {
    auto it = requests_.find(serial);
    if (it == requests_.end()) return;  // defensive; should not happen
    Request req = std::move(it->second);
    requests_.erase(it);
    inflight_.set(static_cast<int64_t>(requests_.size()));
    // Drain ordering (docs/CLUSTER.md): the final admitted request's
    // result must be durable BEFORE its reply goes out — a client that
    // saw the answer may immediately restart this node and expect the
    // warm load to contain it.
    maybe_drain_snapshot();
    const uint64_t wall_ns = obs::now_ns() - req.start_ns;
    obs::ScopedTraceId trace_scope(req.trace_id);
    request_ns_.record(wall_ns);
    obs::record_span("net/request", req.start_ns, wall_ns);
    if (req.cancel->cancelled()) cancelled_jobs_.add(1);

    Conn* conn = nullptr;
    auto cit = conns_.find(req.conn_fd);
    if (cit != conns_.end() && cit->second->serial == req.conn_serial)
      conn = cit->second.get();
    if (conn) conn->pending--;
    if (req.answered || !conn) {  // deadline spoke, or client left
      maybe_slow_log(req, wall_ns, nullptr,
                     req.answered ? "deadline_exceeded" : "client_gone");
      return;
    }

    try {
      const JobResult r = fut.get();
      Reply reply = Reply::from_result(req.set, r);
      reply.trace_id = req.trace_id;
      JsonValue resp = reply.to_json();
      if (!req.id.is_null()) resp.set("id", req.id);
      send_json(conn, resp.dump());
      responses_ok_.add(1);
      maybe_slow_log(req, wall_ns, &r, nullptr);
    } catch (const CancelledError&) {
      send_error(conn, req.id, "cancelled", "job cancelled");
      maybe_slow_log(req, wall_ns, nullptr, "cancelled");
    } catch (const std::exception& e) {
      send_error(conn, req.id, "encode_failed", e.what());
      maybe_slow_log(req, wall_ns, nullptr, "encode_failed");
    }
  }

  /// One structured JSON line per request slower than --slow-ms, with the
  /// wall time split into queue wait vs encode time (plus the PICOLA
  /// phase breakdown when the winning backend recorded one).
  void maybe_slow_log(const Request& req, uint64_t wall_ns,
                      const JobResult* r, const char* error) {
    if (opt_.slow_request_ms <= 0) return;
    if (wall_ns < static_cast<uint64_t>(opt_.slow_request_ms) * 1'000'000)
      return;
    slow_requests_.add(1);
    const double wall_ms = static_cast<double>(wall_ns) / 1e6;
    JsonValue line = JsonValue::make_object();
    line.set("event", JsonValue::make_string("slow_request"));
    line.set("serial", JsonValue::make_int(static_cast<int64_t>(req.serial)));
    if (req.trace_id)
      line.set("trace_id", JsonValue::make_string(hex64(req.trace_id)));
    if (req.parent_span)
      line.set("parent_span",
               JsonValue::make_string(hex64(req.parent_span)));
    line.set("wall_ms", JsonValue::make_double(wall_ms));
    if (r) {
      const double queue_ms = r->queue_wait_ms;
      line.set("queue_wait_ms", JsonValue::make_double(queue_ms));
      line.set("encode_ms", JsonValue::make_double(
                                queue_ms < wall_ms ? wall_ms - queue_ms : 0));
      line.set("backend", JsonValue::make_string(
                              portfolio::backend_kind_name(r->backend)));
      line.set("cached", JsonValue::make_int(r->cache_hit ? 1 : 0));
      const PicolaStats& ps = r->picola.stats;
      if (ps.classify_ms > 0 || ps.guide_ms > 0 || ps.solve_ms > 0) {
        line.set("classify_ms", JsonValue::make_double(ps.classify_ms));
        line.set("guide_ms", JsonValue::make_double(ps.guide_ms));
        line.set("solve_ms", JsonValue::make_double(ps.solve_ms));
      }
    }
    if (error) line.set("error", JsonValue::make_string(error));
    const std::string text = line.dump();
    if (opt_.slow_log)
      opt_.slow_log(text);
    else
      std::fprintf(stderr, "%s\n", text.c_str());
  }

  void expire_deadlines(uint64_t now) {
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      uint64_t serial = deadlines_.begin()->second;
      deadlines_.erase(deadlines_.begin());
      auto it = requests_.find(serial);
      if (it == requests_.end() || it->second.answered) continue;
      Request& req = it->second;
      req.answered = true;
      req.cancel->cancel();  // unwind the restarts at their next column
      deadline_misses_.add(1);
      auto cit = conns_.find(req.conn_fd);
      if (cit != conns_.end() && cit->second->serial == req.conn_serial)
        send_deadline_exceeded(cit->second.get(), req.id, req.deadline_ms);
    }
  }

  void sweep_idle(uint64_t now) {
    if (opt_.idle_timeout_ms <= 0) return;
    const uint64_t limit =
        static_cast<uint64_t>(opt_.idle_timeout_ms) * 1'000'000;
    for (auto& [fd, conn] : conns_) {
      if (conn->marked_close || conn->pending > 0 || conn->unsent() > 0)
        continue;
      // last_activity may postdate `now` (touched by an event this very
      // iteration) — an unsigned difference would wrap to "idle forever".
      if (now > conn->last_activity_ns &&
          now - conn->last_activity_ns >= limit) {
        idle_closed_.add(1);
        conn->marked_close = true;
      }
    }
  }

  void begin_drain() {
    if (draining_) return;
    draining_ = true;
    drain_started_ns_ = obs::now_ns();
    if (listen_fd_ >= 0) {
      poller_.remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    maybe_drain_snapshot();  // zero-inflight drain: snapshot right away
  }

  /// Once per drain, as soon as the last admitted request has been
  /// removed from the books (and before its reply is sent): flush the
  /// persist cache so a rolling restart warm-loads everything this node
  /// ever answered.  service_.drain_snapshot() waits out a racing
  /// periodic snapshot and bumps persist/drain_snapshots.
  void maybe_drain_snapshot() {
    if (!draining_ || drain_snapshotted_ || !requests_.empty()) return;
    drain_snapshotted_ = true;
    std::string error;
    if (!service_.drain_snapshot(&error) && !error.empty())
      std::fprintf(stderr, "picola serve: drain snapshot failed: %s\n",
                   error.c_str());
  }

  void check_drain_done(uint64_t now) {
    if (!draining_ || !requests_.empty()) return;
    bool flushed = true;
    for (auto& [fd, conn] : conns_)
      if (conn->unsent() > 0) flushed = false;
    if (!flushed && (now <= drain_started_ns_ ||
                     now - drain_started_ns_ < kDrainFlushGraceNs))
      return;
    for (auto& [fd, conn] : conns_) conn->marked_close = true;
    process_deferred_closes();
    // The admin plane served 503s during the drain; it goes down with the
    // loop.
    for (auto& [fd, ac] : admin_conns_) ac->marked_close = true;
    process_admin_closes();
    if (admin_listen_fd_ >= 0) {
      poller_.remove(admin_listen_fd_);
      ::close(admin_listen_fd_);
      admin_listen_fd_ = -1;
    }
    finished_ = true;
  }

  // ---- write path ------------------------------------------------------

  void send_error(Conn* conn, const JsonValue& id, const std::string& code,
                  const std::string& detail) {
    JsonValue r = JsonValue::make_object();
    if (!id.is_null()) r.set("id", id);
    r.set("error", JsonValue::make_string(code));
    if (!detail.empty()) r.set("detail", JsonValue::make_string(detail));
    send_json(conn, r.dump());
    responses_error_.add(1);
  }

  void send_deadline_exceeded(Conn* conn, const JsonValue& id,
                              int deadline_ms) {
    JsonValue r = JsonValue::make_object();
    if (!id.is_null()) r.set("id", id);
    r.set("error", JsonValue::make_string("deadline_exceeded"));
    r.set("deadline_ms", JsonValue::make_int(deadline_ms));
    send_json(conn, r.dump());
    responses_error_.add(1);
  }

  static JsonValue ok_response(const JsonValue& id) {
    JsonValue r = JsonValue::make_object();
    if (!id.is_null()) r.set("id", id);
    r.set("ok", JsonValue::make_bool(true));
    return r;
  }

  void send_json(Conn* conn, const std::string& payload) {
    if (conn->marked_close) return;
    conn->wbuf += encode_frame(payload);
    frames_out_.add(1);
    try_flush(conn);
    if (conn->marked_close) return;
    const size_t unsent = conn->unsent();
    if (unsent > opt_.max_write_buffer_bytes) {
      // The client is slower than its responses; cut it loose.
      slow_closed_.add(1);
      conn->marked_close = true;
      return;
    }
    if (!conn->paused_read && unsent > opt_.write_backpressure_bytes) {
      conn->paused_read = true;
      update_interest(conn, /*read=*/false);
    }
  }

  void try_flush(Conn* conn) {
    while (conn->woff < conn->wbuf.size()) {
      // MSG_NOSIGNAL: a peer that closed mid-frame is EPIPE (handled
      // below), never a process-killing SIGPIPE.
      ssize_t k = sys::send_nosig(conn->fd, conn->wbuf.data() + conn->woff,
                                  conn->wbuf.size() - conn->woff);
      if (k > 0) {
        conn->woff += static_cast<size_t>(k);
        conn->last_activity_ns = obs::now_ns();
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          update_interest(conn, /*read=*/!conn->paused_read &&
                                    !conn->close_after_flush);
        }
        return;
      }
      conn->marked_close = true;  // broken pipe etc.
      return;
    }
    conn->wbuf.clear();
    conn->woff = 0;
    if (conn->close_after_flush) {
      conn->marked_close = true;
      return;
    }
    bool interest_changed = conn->want_write;
    conn->want_write = false;
    if (conn->paused_read) {
      conn->paused_read = false;
      interest_changed = true;
    }
    if (interest_changed) update_interest(conn, /*read=*/true);
  }

  void on_writable(Conn* conn) { try_flush(conn); }

  void update_interest(Conn* conn, bool read) {
    poller_.set(conn->fd, read, conn->want_write);
  }

  void process_deferred_closes() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->second->marked_close) {
        ++it;
        continue;
      }
      Conn* conn = it->second.get();
      // Abandon this connection's outstanding work: nobody is left to
      // read the answers.
      for (auto& [serial, req] : requests_) {
        if (req.conn_fd == conn->fd && req.conn_serial == conn->serial)
          req.cancel->cancel();
      }
      poller_.remove(conn->fd);
      sys::close(conn->fd);  // injected EINTR tolerated: fd is gone
      closed_.add(1);
      it = conns_.erase(it);
    }
    active_.set(static_cast<int64_t>(conns_.size()));
  }

  // ---- reporting -------------------------------------------------------

  std::string net_stats_json() const {
    std::string j = "{";
    auto add = [&j](const char* k, long long v) {
      j += "\"" + std::string(k) + "\":" + std::to_string(v) + ",";
    };
    add("connections_accepted", accepted_.value());
    add("connections_closed", closed_.value());
    add("active_connections", active_.value());
    add("frames_in", frames_in_.value());
    add("frames_out", frames_out_.value());
    add("requests_admitted", admitted_.value());
    add("responses_ok", responses_ok_.value());
    add("responses_error", responses_error_.value());
    add("sheds", sheds_.value());
    add("deadline_misses", deadline_misses_.value());
    add("cancelled_jobs", cancelled_jobs_.value());
    add("frame_errors", frame_errors_.value());
    add("idle_closed", idle_closed_.value());
    j += "\"inflight\":" + std::to_string(inflight_.value()) + "}";
    return j;
  }

  // ---- members ---------------------------------------------------------

  ServerOptions opt_;
  obs::MetricsRegistry registry_;  ///< net/* (service has its own)
  EncodingService service_;
  Poller poller_;

  obs::Counter& accepted_;
  obs::Counter& closed_;
  obs::Counter& idle_closed_;
  obs::Counter& slow_closed_;
  obs::Counter& frames_in_;
  obs::Counter& frames_out_;
  obs::Counter& admitted_;
  obs::Counter& responses_ok_;
  obs::Counter& responses_error_;
  obs::Counter& sheds_;
  obs::Counter& deadline_misses_;
  obs::Counter& cancelled_jobs_;
  obs::Counter& frame_errors_;
  obs::Counter& wakeups_;        ///< wake() calls folded in at drain time
  obs::Counter& wakeup_reads_;   ///< wake-pipe drains (coalescing denominator)
  obs::Counter& completions_;    ///< job completions delivered to the loop
  obs::Counter& admin_requests_;
  obs::Counter& slow_requests_;
  obs::Counter& peek_attempts_;    ///< cluster/* — peer cache forwarding
  obs::Counter& forwarded_hits_;
  obs::Counter& peek_misses_;
  obs::Counter& peek_failures_;
  obs::Counter& peeks_served_;
  obs::Gauge& active_;
  obs::Gauge& inflight_;
  obs::Gauge& uptime_seconds_;
  obs::Histogram& request_ns_;
  uint64_t start_ns_ = 0;

  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  uint16_t bound_port_ = 0;
  int admin_listen_fd_ = -1;
  uint16_t admin_port_ = 0;

  // Loop-thread state.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::unordered_map<int, std::unique_ptr<AdminConn>> admin_conns_;
  std::unordered_map<uint64_t, Request> requests_;
  std::multimap<uint64_t, uint64_t> deadlines_;  ///< deadline_ns -> serial
  uint64_t conn_serial_ = 0;
  uint64_t request_serial_ = 0;
  bool draining_ = false;
  bool finished_ = false;
  bool drain_snapshotted_ = false;
  uint64_t drain_started_ns_ = 0;

  // Peer cache-hit forwarding (null/empty when not clustered).
  std::unique_ptr<HashRing> peer_ring_;
  int self_index_ = -1;
  std::vector<std::unique_ptr<Client>> peer_clients_;  ///< probe thread only
  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  std::deque<ProbeTask> probe_q_;
  bool probe_stop_ = false;
  std::thread probe_thread_;

  // Cross-thread state.
  std::atomic<bool> shutdown_requested_{false};
  /// wake() runs in signal context, so it may not touch the striped
  /// Counter (thread_local stripe selection is not async-signal-safe);
  /// it bumps this raw atomic and the loop folds it into net/wakeups.
  std::atomic<uint64_t> wake_calls_{0};
  std::mutex done_mu_;
  std::vector<std::pair<uint64_t, std::shared_future<JobResult>>> done_;
  std::thread loop_thread_;
};

Server::Server(const ServerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Server::~Server() {
  stop();
}

uint16_t Server::port() const { return impl_->bound_port_; }

uint16_t Server::admin_port() const { return impl_->admin_port_; }

void Server::run() { impl_->run(); }

void Server::start() {
  impl_->loop_thread_ = std::thread([this]() { impl_->run(); });
}

void Server::request_shutdown() noexcept { impl_->request_shutdown(); }

void Server::stop() {
  impl_->request_shutdown();
  if (impl_->loop_thread_.joinable()) impl_->loop_thread_.join();
}

const obs::MetricsRegistry& Server::metrics() const {
  return impl_->registry_;
}

EncodingService& Server::service() { return impl_->service_; }

}  // namespace picola::net
