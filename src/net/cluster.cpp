#include "net/cluster.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <netdb.h>
#include <thread>

#include "net/sys.h"

namespace picola::net {

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void sleep_ms(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_error(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

}  // namespace

std::optional<ClusterMember> parse_member(const std::string& spec,
                                          std::string* error) {
  ClusterMember m;
  size_t c1 = spec.find(':');
  if (c1 == std::string::npos || c1 == 0) {
    set_error(error, "bad member '" + spec + "' (want host:port[:admin])");
    return std::nullopt;
  }
  m.host = spec.substr(0, c1);
  size_t c2 = spec.find(':', c1 + 1);
  std::string port_s = spec.substr(
      c1 + 1, c2 == std::string::npos ? std::string::npos : c2 - c1 - 1);
  auto parse_port = [&](const std::string& s, int* out) {
    if (s.empty()) return false;
    char* end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (*end != '\0' || v < 0 || v > 65535) return false;
    *out = static_cast<int>(v);
    return true;
  };
  int port = 0;
  if (!parse_port(port_s, &port) || port == 0) {
    set_error(error, "bad port in member '" + spec + "'");
    return std::nullopt;
  }
  m.port = static_cast<uint16_t>(port);
  if (c2 != std::string::npos) {
    int admin = 0;
    if (!parse_port(spec.substr(c2 + 1), &admin)) {
      set_error(error, "bad admin port in member '" + spec + "'");
      return std::nullopt;
    }
    m.admin_port = admin;
  }
  return m;
}

std::vector<ClusterMember> parse_member_list(const std::string& specs,
                                             std::string* error) {
  std::vector<ClusterMember> members;
  size_t start = 0;
  while (start <= specs.size()) {
    size_t comma = specs.find(',', start);
    std::string one = specs.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!one.empty()) {
      auto m = parse_member(one, error);
      if (!m) return {};
      members.push_back(std::move(*m));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (members.empty()) set_error(error, "empty member list");
  return members;
}

/// One serialised connection per backend: callers (and hedge legs)
/// routing to the same backend queue on the lane mutex; different
/// backends never contend.
struct ClusterClient::Lane {
  explicit Lane(const ClientOptions& o) : client(o) {}
  std::mutex mu;
  Client client;
};

struct ClusterClient::Health {
  std::atomic<bool> draining{false};
  std::atomic<int64_t> next_probe_at{0};  ///< steady ms; CAS-claimed
};

struct ClusterClient::LegResult {
  bool finished = false;
  Outcome outcome;
};

struct ClusterClient::HedgedCall {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  ///< a returnable reply landed
  int winner = -1;    ///< leg index that produced it
  int finished = 0;
  LegResult legs[2];
};

ClusterClient::ClusterClient(ClusterOptions opt) : opt_(std::move(opt)) {
  std::vector<std::string> names;
  names.reserve(opt_.members.size());
  for (const ClusterMember& m : opt_.members) names.push_back(m.name());
  ring_ = HashRing(std::move(names), opt_.vnodes);
  rng_ = splitmix64(opt_.seed ^ 0x636C7573746572ULL);  // "cluster"
  lanes_.reserve(opt_.members.size());
  breakers_.reserve(opt_.members.size());
  health_.reserve(opt_.members.size());
  for (size_t i = 0; i < opt_.members.size(); ++i) {
    ClientOptions co = opt_.client;
    co.max_retries = 0;  // cross-backend retry is the router's job
    co.jitter_seed = splitmix64(opt_.seed + i + 1);
    lanes_.push_back(std::make_unique<Lane>(co));
    breakers_.push_back(std::make_unique<CircuitBreaker>(opt_.breaker));
    health_.push_back(std::make_unique<Health>());
  }
}

ClusterClient::~ClusterClient() {
  std::unique_lock<std::mutex> lock(outstanding_mu_);
  outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void ClusterClient::bump(uint64_t Stats::*field, uint64_t n) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*field += n;
}

ClusterClient::Stats ClusterClient::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

CircuitBreaker::State ClusterClient::breaker_state(size_t backend) const {
  return breakers_[backend]->state();
}

bool ClusterClient::draining(size_t backend) const {
  return health_[backend]->draining.load(std::memory_order_relaxed);
}

int ClusterClient::backoff_ms(int round) {
  int64_t cap = opt_.backoff_base_ms;
  for (int i = 0; i < round && cap < opt_.backoff_max_ms; ++i) cap *= 2;
  cap = std::clamp<int64_t>(cap, 0, opt_.backoff_max_ms);
  if (cap <= 0) return 0;
  std::lock_guard<std::mutex> lock(rng_mu_);
  rng_ = splitmix64(rng_);
  return static_cast<int>(rng_ % static_cast<uint64_t>(cap + 1));
}

int ClusterClient::probe_healthz(const ClusterMember& m) {
  // Minimal blocking-with-timeout HTTP GET against the admin plane.
  // Goes through the net/sys shim so fault plans can partition the
  // health path like any other socket.
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(m.host.c_str(), std::to_string(m.admin_port).c_str(),
                    &hints, &res) != 0)
    return -1;
  int fd = -1;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(opt_.health_timeout_ms);
  auto wait_fd = [&](short events) {
    for (;;) {
      pollfd p{};
      p.fd = fd;
      p.events = events;
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      int n = sys::poll(&p, 1, static_cast<int>(left.count()));
      if (n > 0) return true;
      if (n == 0) return false;
      if (errno != EINTR) return false;
    }
  };
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) continue;
    int rc = sys::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && (errno == EINPROGRESS || errno == EINTR)) {
      if (wait_fd(POLLOUT)) {
        int so_error = 0;
        socklen_t len = sizeof so_error;
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) == 0 &&
            so_error == 0)
          rc = 0;
      }
    }
    if (rc == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return -1;
  const std::string req = "GET /healthz HTTP/1.0\r\nHost: " + m.host +
                          "\r\nConnection: close\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    ssize_t k = sys::send_nosig(fd, req.data() + off, req.size() - off);
    if (k > 0) {
      off += static_cast<size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && wait_fd(POLLOUT))
      continue;
    ::close(fd);
    return -1;
  }
  std::string resp;
  char buf[1024];
  while (resp.find("\r\n") == std::string::npos && resp.size() < 4096) {
    ssize_t k = sys::read(fd, buf, sizeof buf);
    if (k > 0) {
      resp.append(buf, static_cast<size_t>(k));
      continue;
    }
    if (k == 0) break;
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && wait_fd(POLLIN)) continue;
    break;
  }
  ::close(fd);
  // "HTTP/1.x NNN ..."
  size_t sp = resp.find(' ');
  if (sp == std::string::npos || resp.size() < sp + 4) return -1;
  int code = 0;
  for (int i = 1; i <= 3; ++i) {
    char c = resp[sp + static_cast<size_t>(i)];
    if (c < '0' || c > '9') return -1;
    code = code * 10 + (c - '0');
  }
  return code;
}

bool ClusterClient::skip_draining(int backend) {
  Health& h = *health_[static_cast<size_t>(backend)];
  if (!h.draining.load(std::memory_order_acquire)) return false;
  int64_t now = now_ms();
  int64_t due = h.next_probe_at.load(std::memory_order_acquire);
  if (now < due) return true;
  // Claim this probe window; losers keep skipping until the next one.
  if (!h.next_probe_at.compare_exchange_strong(due,
                                               now + opt_.health_recheck_ms))
    return true;
  const ClusterMember& m = opt_.members[static_cast<size_t>(backend)];
  if (m.admin_port >= 0) {
    int code = probe_healthz(m);
    if (code == 200) {
      h.draining.store(false, std::memory_order_release);
      bump(&Stats::rejoins);
      return false;  // back in rotation
    }
    if (code == 503) {
      bump(&Stats::drains_observed);
    }
    return true;  // still draining (503) or dead (-1): keep skipping
  }
  // No admin plane to ask: optimistically re-admit and let the breaker
  // or the next shutting_down reply re-confirm.
  h.draining.store(false, std::memory_order_release);
  bump(&Stats::rejoins);
  return false;
}

void ClusterClient::run_leg(int backend, bool probe, JsonValue request,
                            std::string want_id,
                            const std::shared_ptr<HedgedCall>& call,
                            int leg_index) {
  const ClusterMember& member = opt_.members[static_cast<size_t>(backend)];
  Lane& lane = *lanes_[static_cast<size_t>(backend)];
  CircuitBreaker& breaker = *breakers_[static_cast<size_t>(backend)];
  Outcome oc;
  oc.backend = backend;
  {
    std::lock_guard<std::mutex> lane_lock(lane.mu);
    Client& c = lane.client;
    std::string err;
    bool connected = c.connected();
    if (!connected) connected = c.connect(member.host, member.port, &err);
    if (!connected) {
      breaker.on_failure(probe);
      oc.kind = OutcomeKind::kTransport;
      oc.error = err;
    } else {
      auto reply = c.call(request, &err);
      if (!reply) {
        breaker.on_failure(probe);
        oc.kind = OutcomeKind::kTransport;
        oc.error = member.name() + ": " + err;
      } else {
        // Whatever the reply says, the backend is alive: the breaker
        // tracks transport health only.
        breaker.on_success(probe);
        const JsonValue* e = reply->find("error");
        const std::string code =
            e && e->is_string() ? e->as_string() : std::string();
        if (code == "overloaded") {
          oc.kind = OutcomeKind::kOverloaded;
          const JsonValue* ra = reply->find("retry_after_ms");
          if (ra && ra->is_number())
            oc.retry_after_ms = static_cast<int>(ra->as_int());
          oc.error = member.name() + ": overloaded";
        } else if (code == "shutting_down") {
          oc.kind = OutcomeKind::kDraining;
          oc.error = member.name() + ": shutting down";
        } else if (!want_id.empty() &&
                   (!reply->find("id") ||
                    reply->find("id")->dump() != want_id)) {
          // A reply that is not for our request id must never be handed
          // to the caller — that would be a second reply for some other
          // id.  Close the lane (the stream is not trustworthy) and
          // treat it as a transport failure.
          bump(&Stats::id_mismatches);
          c.close();
          oc.kind = OutcomeKind::kTransport;
          oc.error = member.name() + ": reply id mismatch";
        } else {
          oc.kind = OutcomeKind::kReply;
          oc.reply = std::move(reply);
        }
      }
    }
  }
  const bool returnable = oc.kind == OutcomeKind::kReply;
  std::lock_guard<std::mutex> lock(call->mu);
  LegResult& leg = call->legs[leg_index];
  leg.outcome = std::move(oc);
  leg.finished = true;
  call->finished++;
  if (returnable) {
    if (!call->done) {
      call->done = true;
      call->winner = leg_index;
    } else {
      // Exactly-one-reply: the race was already won; this duplicate is
      // accounted and dropped, never surfaced.
      bump(&Stats::duplicates_suppressed);
    }
  }
  call->cv.notify_all();
}

ClusterClient::Outcome ClusterClient::dispatch(
    int backend, bool probe, const JsonValue& request,
    const std::string& want_id, const std::vector<int>& prefs, size_t pos,
    int* attempts_spent) {
  auto call = std::make_shared<HedgedCall>();
  if (opt_.hedge_ms <= 0 || prefs.size() < 2) {
    run_leg(backend, probe, request, want_id, call, 0);
    std::lock_guard<std::mutex> lock(call->mu);
    return std::move(call->legs[0].outcome);
  }

  auto spawn = [this](std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(outstanding_mu_);
      outstanding_++;
    }
    std::thread([this, fn = std::move(fn)] {
      fn();
      std::lock_guard<std::mutex> lock(outstanding_mu_);
      outstanding_--;
      outstanding_cv_.notify_all();
    }).detach();
  };

  spawn([this, backend, probe, request, want_id, call] {
    run_leg(backend, probe, request, want_id, call, 0);
  });

  bool hedged = false;
  {
    std::unique_lock<std::mutex> lock(call->mu);
    call->cv.wait_for(lock, std::chrono::milliseconds(opt_.hedge_ms),
                      [&] { return call->done || call->finished >= 1; });
    if (!call->done && call->finished == 0) {
      // The primary is slow, not failed: hedge onto the next eligible
      // preference.  Probe/breaker accounting for the hedge backend is
      // its leg's responsibility, exactly like the primary's.
      lock.unlock();
      int hedge_backend = -1;
      bool hedge_probe = false;
      for (size_t q = pos + 1; q < prefs.size(); ++q) {
        int hb = prefs[q];
        if (skip_draining(hb)) {
          bump(&Stats::drain_skips);
          continue;
        }
        CircuitBreaker::Decision gate =
            breakers_[static_cast<size_t>(hb)]->acquire();
        if (!gate.allow) {
          bump(&Stats::breaker_skips);
          continue;
        }
        hedge_backend = hb;
        hedge_probe = gate.probe;
        break;
      }
      if (hedge_backend >= 0) {
        hedged = true;
        (*attempts_spent)++;
        bump(&Stats::attempts);
        bump(&Stats::hedges);
        bump(&Stats::reroutes);  // a hedge leg is never the owner
        spawn([this, hedge_backend, hedge_probe, request, want_id, call] {
          run_leg(hedge_backend, hedge_probe, request, want_id, call, 1);
        });
      }
      lock.lock();
    }
    const int legs = hedged ? 2 : 1;
    call->cv.wait(lock, [&] { return call->done || call->finished >= legs; });
    Outcome oc;
    if (call->done) {
      oc = std::move(call->legs[call->winner].outcome);
      oc.hedged = hedged;
      if (call->winner == 1) {
        oc.hedge_won = true;
        bump(&Stats::hedge_wins);
      }
      return oc;
    }
    // No returnable reply from any leg: prefer the outcome with the
    // most signal (overloaded carries a retry floor, draining marks the
    // backend) over a bare transport error.
    int best = 0;
    auto rank = [](OutcomeKind k) {
      switch (k) {
        case OutcomeKind::kOverloaded: return 2;
        case OutcomeKind::kDraining: return 1;
        default: return 0;
      }
    };
    for (int i = 1; i < legs; ++i) {
      if (!call->legs[i].finished) continue;
      if (rank(call->legs[i].outcome.kind) >
          rank(call->legs[best].outcome.kind))
        best = i;
    }
    oc = std::move(call->legs[best].outcome);
    oc.hedged = hedged;
    return oc;
  }
}

std::optional<JsonValue> ClusterClient::call(const JsonValue& request,
                                             uint64_t key, std::string* error,
                                             CallInfo* info) {
  bump(&Stats::requests);
  if (ring_.empty()) {
    set_error(error, "cluster has no members");
    return std::nullopt;
  }

  JsonValue req = request;
  std::string want_id;
  if (!req.find("cmd")) {  // commands (ping/stats/...) carry no id echo
    if (const JsonValue* id = req.find("id")) {
      want_id = id->dump();
    } else {
      uint64_t stamped = next_id_.fetch_add(1, std::memory_order_relaxed);
      req.set("id", JsonValue::make_int(static_cast<int64_t>(stamped)));
      want_id = req.find("id")->dump();
    }
  }

  const std::vector<int> prefs = ring_.preference(key);
  int budget = opt_.max_attempts > 0
                   ? opt_.max_attempts
                   : static_cast<int>(2 * prefs.size() + 2);
  int round = 0;
  int pending_floor_ms = 0;
  std::string last_error = "no eligible backend";
  CallInfo inf;

  while (budget > 0) {
    bool attempted = false;
    for (size_t pos = 0; pos < prefs.size() && budget > 0; ++pos) {
      int b = prefs[pos];
      if (skip_draining(b)) {
        bump(&Stats::drain_skips);
        continue;
      }
      // Honor the last overloaded reply's retry_after_ms BEFORE touching
      // the next backend: shedding on A must not hammer B (see
      // docs/CLUSTER.md and the regression test in tests/net).
      if (pending_floor_ms > 0) {
        sleep_ms(std::max(pending_floor_ms, backoff_ms(round)));
        bump(&Stats::retry_floor_waits);
        pending_floor_ms = 0;
      }
      CircuitBreaker::Decision gate =
          breakers_[static_cast<size_t>(b)]->acquire();
      if (!gate.allow) {
        bump(&Stats::breaker_skips);
        last_error =
            opt_.members[static_cast<size_t>(b)].name() + ": breaker open";
        continue;
      }
      attempted = true;
      budget--;
      inf.attempts++;
      bump(&Stats::attempts);
      if (pos != 0) {
        inf.rerouted = true;
        bump(&Stats::reroutes);
      }
      Outcome oc = dispatch(b, gate.probe, req, want_id, prefs, pos, &budget);
      if (oc.hedged) {
        inf.hedged = true;
        inf.attempts++;
      }
      switch (oc.kind) {
        case OutcomeKind::kReply: {
          inf.backend = oc.backend;
          if (oc.backend != prefs[0]) inf.rerouted = true;
          if (info) *info = inf;
          return std::move(oc.reply);
        }
        case OutcomeKind::kOverloaded: {
          bump(&Stats::overloaded);
          pending_floor_ms =
              std::max(pending_floor_ms, std::max(1, oc.retry_after_ms));
          last_error = oc.error;
          break;  // next preference
        }
        case OutcomeKind::kDraining: {
          Health& h = *health_[static_cast<size_t>(oc.backend)];
          h.draining.store(true, std::memory_order_release);
          h.next_probe_at.store(now_ms() + opt_.health_recheck_ms,
                                std::memory_order_release);
          bump(&Stats::drains_observed);
          last_error = oc.error;
          break;
        }
        case OutcomeKind::kTransport: {
          last_error = oc.error;
          break;
        }
      }
    }
    if (budget <= 0) break;
    if (!attempted) {
      // Everything skipped (breakers open / draining): burn budget so
      // the loop terminates, and give the cluster a beat to recover.
      budget--;
      sleep_ms(std::max(backoff_ms(round), 5));
    } else {
      sleep_ms(backoff_ms(round));
    }
    round++;
  }
  if (info) *info = inf;
  set_error(error, last_error);
  return std::nullopt;
}

}  // namespace picola::net
