#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "base/hex.h"
#include "net/protocol.h"
#include "net/sys.h"
#include "obs/tracer.h"

namespace picola::net {

namespace {

void set_error(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void sleep_ms(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_from(int timeout_ms) {
  if (timeout_ms <= 0) return Clock::time_point::max();  // unbounded
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

int remaining_ms(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return -1;  // poll() forever
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return std::max<int>(0, static_cast<int>(left.count()));
}

}  // namespace

Client::Client(ClientOptions opt)
    : opt_(opt),
      rng_(splitmix64(opt.jitter_seed ^ 0x636C69656E74ULL)),
      breaker_(BreakerOptions{opt.breaker_threshold, opt.breaker_open_ms}) {}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::wait_io(short events, Clock::time_point deadline,
                     std::string* error, const char* what) {
  for (;;) {
    pollfd p{};
    p.fd = fd_;
    p.events = events;
    int timeout = remaining_ms(deadline);
    if (deadline != Clock::time_point::max() && timeout == 0) {
      set_error(error, std::string("timeout: ") + what);
      return false;
    }
    int n = sys::poll(&p, 1, timeout);
    if (n > 0) return true;  // ready (or error-ready: the caller's
                             // read/write/getsockopt reports the cause)
    if (n == 0) {
      set_error(error, std::string("timeout: ") + what);
      return false;
    }
    if (errno == EINTR) continue;
    set_error(error, std::string("poll: ") + strerror(errno));
    return false;
  }
}

bool Client::connect(const std::string& host, uint16_t port,
                     std::string* error) {
  close();
  bool reconnecting = have_addr_;
  host_ = host;
  port_ = port;
  have_addr_ = true;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    set_error(error, "resolve " + host + ": " + gai_strerror(rc));
    return false;
  }
  std::string last = "no addresses";
  auto deadline = deadline_from(opt_.connect_timeout_ms);
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family,
                      ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      ai->ai_protocol);
    if (fd < 0) {
      last = std::string("socket: ") + strerror(errno);
      continue;
    }
    int crc = sys::connect(fd, ai->ai_addr, ai->ai_addrlen);
    // EINTR on a non-blocking connect means the handshake continues in
    // the background, exactly like EINPROGRESS: wait for writability.
    if (crc != 0 && (errno == EINPROGRESS || errno == EINTR)) {
      fd_ = fd;  // wait_io polls fd_
      std::string wait_err;
      if (!wait_io(POLLOUT, deadline, &wait_err, "connect")) {
        fd_ = -1;
        ::close(fd);
        last = wait_err;
        continue;
      }
      fd_ = -1;
      int so_error = 0;
      socklen_t len = sizeof so_error;
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 &&
          so_error == 0) {
        // SO_ERROR == 0 also for a socket the handshake never started on
        // (an interrupted connect that did not reach the kernel): only a
        // peer address proves the connection is live.
        sockaddr_storage peer{};
        socklen_t plen = sizeof peer;
        if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &plen) ==
            0) {
          crc = 0;
        } else {
          errno = ENOTCONN;
          crc = -1;
        }
      } else {
        errno = so_error ? so_error : errno;
        crc = -1;
      }
    }
    if (crc == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      fd_ = fd;
      break;
    }
    last = std::string("connect: ") + strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  if (fd_ < 0) {
    set_error(error,
              "connect " + host + ":" + std::to_string(port) + ": " + last);
    return false;
  }
  reader_ = FrameReader{kFrameAbsoluteMax};  // drop any stale partial frame
  if (reconnecting) stats_.reconnects++;
  return true;
}

bool Client::send(const std::string& payload, std::string* error) {
  if (fd_ < 0) {
    set_error(error, "not connected");
    return false;
  }
  std::string frame = encode_frame(payload);
  auto deadline = deadline_from(opt_.io_timeout_ms);
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t k = sys::send_nosig(fd_, frame.data() + off, frame.size() - off);
    if (k > 0) {
      off += static_cast<size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait_io(POLLOUT, deadline, error, "send")) {
        close();
        return false;
      }
      continue;
    }
    set_error(error, "write: " + std::string(strerror(errno)));
    close();
    return false;
  }
  return true;
}

std::optional<std::string> Client::recv(std::string* error) {
  if (fd_ < 0) {
    set_error(error, "not connected");
    return std::nullopt;
  }
  auto deadline = deadline_from(opt_.io_timeout_ms);
  for (;;) {
    if (auto payload = reader_.next()) return payload;
    char buf[65536];
    ssize_t k = sys::read(fd_, buf, sizeof buf);
    if (k > 0) {
      if (!reader_.feed(buf, static_cast<size_t>(k))) {
        set_error(error, "oversized response frame");
        close();
        return std::nullopt;
      }
      continue;
    }
    if (k == 0) {
      set_error(error, "connection closed by server");
      close();
      return std::nullopt;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!wait_io(POLLIN, deadline, error, "recv")) {
        close();
        return std::nullopt;
      }
      continue;
    }
    set_error(error, "read: " + std::string(strerror(errno)));
    close();
    return std::nullopt;
  }
}

std::optional<JsonValue> Client::call(const JsonValue& request,
                                      std::string* error) {
  if (!opt_.trace_requests) return call_impl(request, error);

  // Trace propagation (docs/SERVICE.md): attach a generated trace_id /
  // parent_span unless the caller already set them, and time the whole
  // round trip as a client/request span under that id — the same id the
  // server stamps onto its net/request and service/* spans, so one
  // Perfetto export shows the request end to end.
  JsonValue traced = request;
  uint64_t trace_id = 0;
  if (const JsonValue* t = traced.find("trace_id")) {
    if (t->is_string()) parse_hex64(t->as_string(), &trace_id);
  }
  if (trace_id == 0) {
    do {
      rng_ = splitmix64(rng_);
      trace_id = rng_;
    } while (trace_id == 0);
    traced.set("trace_id", JsonValue::make_string(hex64(trace_id)));
  }
  if (!traced.find("parent_span")) {
    rng_ = splitmix64(rng_);
    traced.set("parent_span", JsonValue::make_string(hex64(rng_ ? rng_ : 1)));
  }
  last_trace_id_ = trace_id;
  obs::ScopedTraceId scope(trace_id);
  const uint64_t start_ns = obs::now_ns();
  auto result = call_impl(traced, error);
  obs::record_span("client/request", start_ns, obs::now_ns() - start_ns);
  return result;
}

std::optional<JsonValue> Client::call_impl(const JsonValue& request,
                                           std::string* error) {
  if (!send(request.dump(), error)) return std::nullopt;
  auto payload = recv(error);
  if (!payload) return std::nullopt;
  std::string parse_error;
  auto parsed = JsonValue::parse(*payload, &parse_error);
  if (!parsed) {
    set_error(error, "bad response: " + parse_error);
    return std::nullopt;
  }
  return parsed;
}

int Client::backoff_delay_ms(int attempt) {
  int64_t cap = opt_.backoff_base_ms;
  for (int i = 0; i < attempt && cap < opt_.backoff_max_ms; ++i) cap *= 2;
  cap = std::clamp<int64_t>(cap, 0, opt_.backoff_max_ms);
  if (cap <= 0) return 0;
  rng_ = splitmix64(rng_);
  return static_cast<int>(rng_ % static_cast<uint64_t>(cap + 1));
}

std::optional<JsonValue> Client::call_with_retry(const JsonValue& request,
                                                 std::string* error) {
  std::string last_error = "no attempt made";
  for (int attempt = 0;; ++attempt) {
    stats_.attempts++;
    int server_hint_ms = 0;  // floor on the next delay (overload / breaker)

    CircuitBreaker::Decision gate = breaker_.acquire();
    if (!gate.allow) {
      // Fail fast: don't touch the socket until the open window passes,
      // then the next attempt is the half-open probe.
      last_error = "circuit breaker open: " + last_error;
      server_hint_ms = static_cast<int>(gate.retry_in_ms);
      stats_.breaker_waits++;
    } else {
      if (!connected() && have_addr_) connect(host_, port_, &last_error);
      if (!connected()) {
        if (!have_addr_) {
          // No probe can be in flight: an unconnected, address-less
          // client has never reported an outcome.
          set_error(error, "not connected (call connect() first)");
          return std::nullopt;
        }
        if (breaker_.on_failure(gate.probe)) stats_.breaker_opens++;
      } else {
        auto reply = call(request, &last_error);
        if (reply) {
          const JsonValue* err = reply->find("error");
          if (err && err->is_string() && err->as_string() == "overloaded") {
            // The server is alive and asked us to back off: honor its
            // hint, and don't count this against the circuit breaker.
            stats_.overloaded++;
            breaker_.on_success(gate.probe);
            const JsonValue* ra = reply->find("retry_after_ms");
            if (ra && ra->is_number())
              server_hint_ms = static_cast<int>(ra->as_int());
            last_error = "server overloaded";
          } else {
            breaker_.on_success(gate.probe);
            return reply;  // any other reply — including server errors —
                           // is the answer, not a transport failure
          }
        } else {
          if (breaker_.on_failure(gate.probe)) stats_.breaker_opens++;
        }
      }
    }

    if (attempt >= opt_.max_retries) {
      set_error(error, last_error);
      return std::nullopt;
    }
    stats_.retries++;
    sleep_ms(std::max(backoff_delay_ms(attempt), server_hint_ms));
  }
}

}  // namespace picola::net
