#pragma once
// ClusterClient — cluster-aware routing over N `picola serve --tcp`
// backends (docs/CLUSTER.md).
//
// Requests are placed on a consistent-hash ring (net/hash_ring.h) by a
// caller-supplied routing key (service/job.h route_key()), and walk the
// ring's failover-preference order when the owner is unavailable:
//
//  * per-backend circuit breakers (net/breaker.h) — a dead backend is
//    skipped after `breaker.threshold` consecutive transport failures,
//    and exactly one half-open probe re-admits it;
//  * failover re-route with exactly-one-reply semantics: the caller
//    receives exactly one reply per request id, late duplicate replies
//    from hedged legs are counted and dropped;
//  * hedged re-dispatch: when a backend has not answered within
//    `hedge_ms`, the request is ALSO dispatched to the next preference
//    and the first completed reply wins;
//  * `retry_after_ms` from an `overloaded` reply is honored as a floor
//    on the delay before the NEXT backend is attempted — shedding on
//    backend A must not turn into an immediate hammer of backend B;
//  * graceful drains are observed: a `shutting_down` reply or an admin
//    /healthz 503 marks the backend draining and routes around it, with
//    a periodic re-probe so a restarted node re-enters rotation.
//
// Thread-safe: any number of caller threads may call() concurrently.
// Each backend gets one serialised connection lane (callers routing to
// different backends never contend); hedge legs run on short-lived
// internal threads whose shared state is fully synchronised, so the
// class is ASan/TSan-clean by construction.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/breaker.h"
#include "net/client.h"
#include "net/hash_ring.h"
#include "net/json.h"

namespace picola::net {

/// One cluster backend.  `name()` ("host:port") is the ring identity —
/// every router and server must derive placement from the same names.
struct ClusterMember {
  std::string host;
  uint16_t port = 0;
  int admin_port = -1;  ///< /healthz plane; -1 = unknown (probing off)

  std::string name() const { return host + ":" + std::to_string(port); }
};

/// Parse "host:port" or "host:port:admin_port"; nullopt + *error on junk.
std::optional<ClusterMember> parse_member(const std::string& spec,
                                          std::string* error = nullptr);

/// Parse a comma-separated member list; empty + *error on any bad spec.
std::vector<ClusterMember> parse_member_list(const std::string& specs,
                                             std::string* error = nullptr);

struct ClusterOptions {
  std::vector<ClusterMember> members;
  /// Transport knobs for every backend lane (max_retries is ignored —
  /// retrying across backends is the router's job, so lanes make
  /// exactly one attempt per dispatch).
  ClientOptions client;
  BreakerOptions breaker;
  int vnodes = 64;
  /// > 0: hedged re-dispatch after this many ms without a reply from
  /// the backend first attempted; 0 disables hedging.
  int hedge_ms = 0;
  /// Total backend dispatches (hedge legs included) one call() may
  /// spend; 0 picks 2 * members + 2.
  int max_attempts = 0;
  /// How often a backend marked draining is re-probed (admin /healthz
  /// when the member has an admin port, otherwise a direct re-admit).
  int health_recheck_ms = 250;
  /// Timeout for one /healthz probe.
  int health_timeout_ms = 500;
  /// Seeds the backoff jitter (reproducible chaos schedules).
  uint64_t seed = 1;
  /// Inter-attempt backoff (full jitter, like ClientOptions but across
  /// backends): first cap and max cap in ms.
  int backoff_base_ms = 5;
  int backoff_max_ms = 500;
};

class ClusterClient {
 public:
  explicit ClusterClient(ClusterOptions opt);
  ~ClusterClient();  ///< waits for any in-flight hedge legs

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Where one call() landed (tests / harness diagnostics).
  struct CallInfo {
    int backend = -1;   ///< member index that produced the reply
    int attempts = 0;   ///< dispatches spent (hedge legs included)
    bool rerouted = false;  ///< answered by a non-owner backend
    bool hedged = false;    ///< a hedge leg was launched
  };

  /// Route `request` by `key` and return exactly one reply, or nullopt
  /// with *error when every eligible backend was exhausted.  A request
  /// without an "id" field is stamped with a router-generated one; the
  /// reply's id is verified to match (a mismatch counts as an
  /// exactly-one-reply violation and fails the call).  Replies carrying
  /// `overloaded` / `shutting_down` server errors are absorbed and
  /// re-routed; any other reply — success or terminal error — is the
  /// answer.
  std::optional<JsonValue> call(const JsonValue& request, uint64_t key,
                                std::string* error = nullptr,
                                CallInfo* info = nullptr);

  struct Stats {
    uint64_t requests = 0;   ///< call() invocations
    uint64_t attempts = 0;   ///< backend dispatches (hedge legs included)
    uint64_t reroutes = 0;   ///< dispatches to a non-owner backend
    uint64_t hedges = 0;     ///< hedge legs launched
    uint64_t hedge_wins = 0; ///< calls answered by the hedge leg
    uint64_t duplicates_suppressed = 0;  ///< late losing replies dropped
    uint64_t breaker_skips = 0;  ///< backends skipped by an open breaker
    uint64_t drain_skips = 0;    ///< backends skipped while draining
    uint64_t drains_observed = 0;  ///< shutting_down replies + /healthz 503s
    uint64_t rejoins = 0;        ///< drained backends re-admitted
    uint64_t overloaded = 0;     ///< overloaded replies absorbed
    uint64_t retry_floor_waits = 0;  ///< sleeps forced by retry_after_ms
                                     ///< across a failover re-route
    uint64_t id_mismatches = 0;  ///< exactly-one-reply violations seen
  };
  Stats stats() const;

  const HashRing& ring() const { return ring_; }
  size_t num_backends() const { return opt_.members.size(); }
  int owner_of(uint64_t key) const { return ring_.owner(key); }
  CircuitBreaker::State breaker_state(size_t backend) const;
  bool draining(size_t backend) const;

 private:
  struct Lane;       // one serialised connection per backend
  struct Health;     // draining flag + next re-probe stamp
  struct LegResult;  // outcome of one dispatch leg
  struct HedgedCall; // shared state of one (possibly hedged) dispatch

  enum class OutcomeKind { kReply, kOverloaded, kDraining, kTransport };
  struct Outcome {
    OutcomeKind kind = OutcomeKind::kTransport;
    std::optional<JsonValue> reply;
    int backend = -1;
    int retry_after_ms = 0;
    bool hedged = false;
    bool hedge_won = false;
    std::string error;
  };

  /// One dispatch to `backend` (probe flag from its breaker), hedging
  /// onto the next eligible preference after hedge_ms.  `prefs`/`pos`
  /// locate the hedge candidate; consumed attempts are added to
  /// *attempts_spent.
  Outcome dispatch(int backend, bool probe, const JsonValue& request,
                   const std::string& want_id, const std::vector<int>& prefs,
                   size_t pos, int* attempts_spent);

  /// Run one leg synchronously on the calling thread; fills *leg.
  void run_leg(int backend, bool probe, JsonValue request,
               std::string want_id, const std::shared_ptr<HedgedCall>& call,
               int leg_index);

  /// Returns true when `backend` should be skipped as draining (and
  /// handles the periodic re-probe / re-admit).
  bool skip_draining(int backend);

  /// Blocking /healthz probe; 200 = healthy, 503 = draining, -1 = dead.
  int probe_healthz(const ClusterMember& m);

  int backoff_ms(int round);
  void bump(uint64_t Stats::*field, uint64_t n = 1);

  ClusterOptions opt_;
  HashRing ring_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<std::unique_ptr<Health>> health_;

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::mutex rng_mu_;
  uint64_t rng_;
  std::atomic<uint64_t> next_id_{1};

  // In-flight hedge legs that outlived their call(); the destructor
  // waits for them so lanes/breakers never dangle.
  std::mutex outstanding_mu_;
  std::condition_variable outstanding_cv_;
  int outstanding_ = 0;
};

}  // namespace picola::net
