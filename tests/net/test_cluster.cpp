// net/cluster.h — consistent-hash routing, failover, drain observation,
// the retry_after_ms floor across a re-route, hedged dispatch with
// exactly-one-reply dedup, peer cache-hit forwarding, and the
// drain-before-final-reply snapshot ordering (docs/CLUSTER.md).

#include "net/cluster.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "base/problem_io.h"
#include "check/instance_gen.h"
#include "constraints/constraint_io.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/hash_ring.h"
#include "net/json.h"
#include "net/server.h"
#include "persist/store.h"
#include "service/job.h"
#include "service/result_cache.h"

namespace picola::net {
namespace {

int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// An ephemeral port with nothing (yet) listening behind it.
uint16_t free_port() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

std::string gen_con(uint64_t seed, int min_symbols = 5, int max_symbols = 8) {
  check::GeneratorOptions g;
  g.min_symbols = min_symbols;
  g.max_symbols = max_symbols;
  g.max_constraints = 4;
  check::InstanceGenerator gen(seed, g);
  return write_constraints(gen.next().set);
}

uint64_t con_route_key(const std::string& con) {
  std::string error;
  auto problem = parse_problem_text(con, &error);
  EXPECT_TRUE(problem) << error;
  return route_key(problem->set);
}

JsonValue inline_request(const std::string& con, const std::string& id,
                         int restarts = 1) {
  JsonValue r = JsonValue::make_object();
  r.set("con", JsonValue::make_string(con));
  r.set("id", JsonValue::make_string(id));
  r.set("restarts", JsonValue::make_int(restarts));
  return r;
}

/// The drain tests park a job that must still be running when the drain
/// starts, however fast encoding is.  Where fault hooks exist, this plan
/// holds the job's first restart task for 300 ms.
fault::FaultPlan parked_job_delay() {
  fault::FaultPlan plan(1);
  plan.add({"service/restart_task",
            {fault::Kind::kDelay, 0, 0, /*delay_ms=*/300},
            0, 1, 1, 1.0});
  return plan;
}

/// The parked job's request.  PICOLA_FAULT_DISABLED builds ignore the
/// delay plan, so there the job runs one annealer slot instead, which
/// takes a few hundred milliseconds on a 20-plus-symbol instance.
JsonValue parked_request(const std::string& con, const std::string& id,
                         [[maybe_unused]] int restarts) {
#ifndef PICOLA_FAULT_DISABLED
  return inline_request(con, id, restarts);
#else
  JsonValue r = inline_request(con, id, 1);
  r.set("backend", JsonValue::make_string("anneal"));
  return r;
#endif
}

/// A minimal frame-speaking backend with a scripted reply, for the tests
/// that need timing control a real Server cannot give (the retry-floor
/// regression).  One connection at a time, served on the accept thread.
class FakeBackend {
 public:
  using Handler = std::function<JsonValue(const JsonValue&)>;

  explicit FakeBackend(Handler handler) : handler_(std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { loop(); });
  }

  ~FakeBackend() { stop(); }

  void stop() {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    int c = conn_fd_.exchange(-1);
    if (c >= 0) ::shutdown(c, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  void loop() {
    for (;;) {
      int c = ::accept(listen_fd_, nullptr, nullptr);
      if (c < 0) return;
      conn_fd_.store(c);
      serve(c);
      conn_fd_.store(-1);
      ::close(c);
    }
  }

  void serve(int c) {
    FrameReader reader(1u << 20);
    char buf[4096];
    for (;;) {
      ssize_t k = ::read(c, buf, sizeof buf);
      if (k == 0) return;
      if (k < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (!reader.feed(buf, static_cast<size_t>(k))) return;
      while (auto payload = reader.next()) {
        std::string parse_error;
        auto req = JsonValue::parse(*payload, &parse_error);
        if (!req) return;
        std::string frame = encode_frame(handler_(*req).dump());
        size_t off = 0;
        while (off < frame.size()) {
          ssize_t w = ::send(c, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
          if (w < 0 && errno == EINTR) continue;
          if (w <= 0) return;
          off += static_cast<size_t>(w);
        }
      }
    }
  }

  Handler handler_;
  int listen_fd_ = -1;
  std::atomic<int> conn_fd_{-1};
  std::atomic<bool> stopped_{false};
  uint16_t port_ = 0;
  std::thread thread_;
};

JsonValue echo_id(const JsonValue& req, JsonValue reply) {
  if (const JsonValue* id = req.find("id")) reply.set("id", *id);
  return reply;
}

TEST(ClusterParse, MemberSpecs) {
  auto m = parse_member("127.0.0.1:7000");
  ASSERT_TRUE(m);
  EXPECT_EQ(m->host, "127.0.0.1");
  EXPECT_EQ(m->port, 7000);
  EXPECT_EQ(m->admin_port, -1);
  EXPECT_EQ(m->name(), "127.0.0.1:7000");

  m = parse_member("node-a:7000:7100");
  ASSERT_TRUE(m);
  EXPECT_EQ(m->admin_port, 7100);

  std::string error;
  EXPECT_FALSE(parse_member("no-port", &error));
  EXPECT_FALSE(parse_member(":7000", &error));
  EXPECT_FALSE(parse_member("h:0", &error));
  EXPECT_FALSE(parse_member("h:7000:bad", &error));

  auto list = parse_member_list("a:1,b:2:3", &error);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name(), "a:1");
  EXPECT_EQ(list[1].admin_port, 3);
  EXPECT_TRUE(parse_member_list("a:1,junk", &error).empty());
  EXPECT_TRUE(parse_member_list("", &error).empty());
}

TEST(Cluster, RoutesToTheOwnerWhenAllBackendsAreHealthy) {
  ServerOptions so;
  so.service.num_threads = 2;
  Server s1(so), s2(so);
  s1.start();
  s2.start();

  ClusterOptions co;
  co.members = {ClusterMember{"127.0.0.1", s1.port()},
                ClusterMember{"127.0.0.1", s2.port()}};
  ClusterClient cluster(co);

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string con = gen_con(seed);
    const uint64_t key = con_route_key(con);
    std::string error;
    ClusterClient::CallInfo info;
    auto reply = cluster.call(inline_request(con, "r" + std::to_string(seed)),
                              key, &error, &info);
    ASSERT_TRUE(reply) << error;
    EXPECT_FALSE(reply->find("error")) << reply->dump();
    EXPECT_EQ(info.backend, cluster.owner_of(key));
    EXPECT_FALSE(info.rerouted);
  }
  ClusterClient::Stats st = cluster.stats();
  EXPECT_EQ(st.requests, 6u);
  EXPECT_EQ(st.reroutes, 0u);
  EXPECT_EQ(st.id_mismatches, 0u);
  s1.stop();
  s2.stop();
}

TEST(Cluster, FailsOverFromADeadBackendAndOpensItsBreaker) {
  ServerOptions so;
  so.service.num_threads = 2;
  Server live(so);
  live.start();

  ClusterOptions co;
  co.members = {ClusterMember{"127.0.0.1", free_port()},  // nothing there
                ClusterMember{"127.0.0.1", live.port()}};
  co.client.connect_timeout_ms = 200;
  co.breaker.threshold = 2;
  co.breaker.open_ms = 10'000;  // stays open for the whole test
  co.backoff_base_ms = 0;
  co.backoff_max_ms = 0;
  ClusterClient cluster(co);

  uint64_t key = 1;
  while (cluster.owner_of(key) != 0) ++key;  // owned by the dead member

  const std::string con = gen_con(42);
  for (int i = 0; i < 4; ++i) {
    std::string error;
    ClusterClient::CallInfo info;
    auto reply = cluster.call(
        inline_request(con, "f" + std::to_string(i)), key, &error, &info);
    ASSERT_TRUE(reply) << error;
    EXPECT_FALSE(reply->find("error")) << reply->dump();
    EXPECT_EQ(info.backend, 1);
    EXPECT_TRUE(info.rerouted);
  }
  ClusterClient::Stats st = cluster.stats();
  EXPECT_GE(st.reroutes, 4u);
  EXPECT_GE(st.breaker_skips, 1u);  // calls 3 and 4 skipped the corpse
  EXPECT_EQ(cluster.breaker_state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cluster.breaker_state(1), CircuitBreaker::State::kClosed);
  live.stop();
}

// Satellite regression: the retry_after_ms a shedding backend returns is
// a FLOOR on the delay before the next backend is attempted.  Shedding
// on A turning into an instant hammer of B is exactly the cascade the
// floor exists to stop.
TEST(Cluster, RetryAfterMsIsHonoredAcrossAFailoverReroute) {
  std::atomic<int64_t> shed_at{0};
  std::atomic<int64_t> b_asked_at{0};
  FakeBackend a([&](const JsonValue& req) {
    JsonValue r = JsonValue::make_object();
    r.set("error", JsonValue::make_string("overloaded"));
    r.set("retry_after_ms", JsonValue::make_int(80));
    shed_at.store(steady_ms());
    return echo_id(req, std::move(r));
  });
  FakeBackend b([&](const JsonValue& req) {
    b_asked_at.store(steady_ms());
    JsonValue r = JsonValue::make_object();
    r.set("ok", JsonValue::make_bool(true));
    return echo_id(req, std::move(r));
  });

  ClusterOptions co;
  co.members = {ClusterMember{"127.0.0.1", a.port()},
                ClusterMember{"127.0.0.1", b.port()}};
  co.backoff_base_ms = 0;  // isolate the floor from jittered backoff
  co.backoff_max_ms = 0;
  ClusterClient cluster(co);

  uint64_t key = 1;
  while (cluster.owner_of(key) != 0) ++key;  // A sheds first

  JsonValue req = JsonValue::make_object();
  req.set("con", JsonValue::make_string("ignored-by-fake"));
  req.set("id", JsonValue::make_string("floor"));
  std::string error;
  ClusterClient::CallInfo info;
  auto reply = cluster.call(req, key, &error, &info);
  ASSERT_TRUE(reply) << error;
  EXPECT_TRUE(reply->find("ok"));
  EXPECT_TRUE(info.rerouted);

  ASSERT_GT(shed_at.load(), 0);
  ASSERT_GT(b_asked_at.load(), 0);
  // 80ms requested; allow generous scheduling slack downward but fail
  // hard on "immediately hammered B".
  EXPECT_GE(b_asked_at.load() - shed_at.load(), 60)
      << "re-route ignored the shed backend's retry_after_ms";
  ClusterClient::Stats st = cluster.stats();
  EXPECT_GE(st.overloaded, 1u);
  EXPECT_GE(st.retry_floor_waits, 1u);
  a.stop();
  b.stop();
}

TEST(Cluster, HedgedDispatchReturnsOneReplyAndSuppressesTheLoser) {
  // Deterministic timing: the owner answers correctly but slowly, the
  // hedge target instantly.  The hedge leg must win, the caller must see
  // exactly one reply, and the slow loser must be counted and dropped.
  FakeBackend slow([&](const JsonValue& req) {
    sleep_ms(150);
    JsonValue r = JsonValue::make_object();
    r.set("ok", JsonValue::make_bool(true));
    r.set("who", JsonValue::make_string("slow"));
    return echo_id(req, std::move(r));
  });
  FakeBackend fast([&](const JsonValue& req) {
    JsonValue r = JsonValue::make_object();
    r.set("ok", JsonValue::make_bool(true));
    r.set("who", JsonValue::make_string("fast"));
    return echo_id(req, std::move(r));
  });

  ClusterOptions co;
  co.members = {ClusterMember{"127.0.0.1", slow.port()},
                ClusterMember{"127.0.0.1", fast.port()}};
  co.hedge_ms = 20;
  ClusterClient cluster(co);

  uint64_t key = 1;
  while (cluster.owner_of(key) != 0) ++key;  // the slow backend owns it

  JsonValue req = JsonValue::make_object();
  req.set("con", JsonValue::make_string("ignored-by-fake"));
  req.set("id", JsonValue::make_string("hedge-1"));
  std::string error;
  ClusterClient::CallInfo info;
  auto reply = cluster.call(req, key, &error, &info);
  ASSERT_TRUE(reply) << error;
  ASSERT_TRUE(reply->find("id"));
  EXPECT_EQ(reply->find("id")->as_string(), "hedge-1");
  EXPECT_EQ(reply->find("who")->as_string(), "fast");
  EXPECT_TRUE(info.hedged);
  EXPECT_EQ(info.backend, 1);

  // The losing leg replies ~130ms later; exactly-one-reply means it is
  // counted and dropped, never surfaced.
  bool suppressed = false;
  for (int i = 0; i < 250 && !suppressed; ++i) {
    suppressed = cluster.stats().duplicates_suppressed >= 1;
    sleep_ms(10);
  }
  ClusterClient::Stats st = cluster.stats();
  EXPECT_GE(st.hedges, 1u);
  EXPECT_GE(st.hedge_wins, 1u);
  EXPECT_TRUE(suppressed) << "losing hedge leg never accounted";
  EXPECT_EQ(st.id_mismatches, 0u);
  EXPECT_EQ(st.requests, 1u);
  slow.stop();
  fast.stop();
}

TEST(Cluster, ObservesDrainReroutesAndReadmitsAfterRestart) {
  const uint16_t port_a = free_port();
  const int admin_a = free_port();
  ServerOptions oa;
  oa.service.num_threads = 2;
  oa.port = port_a;
  oa.admin_port = admin_a;
  ServerOptions ob;
  ob.service.num_threads = 2;

  auto a = std::make_unique<Server>(oa);
  Server b(ob);
  a->start();
  b.start();

  ClusterOptions co;
  co.members = {
      ClusterMember{"127.0.0.1", port_a, admin_a},
      ClusterMember{"127.0.0.1", b.port()}};
  co.health_recheck_ms = 30;
  co.backoff_base_ms = 0;
  co.backoff_max_ms = 0;
  ClusterClient cluster(co);

  uint64_t key = 1;
  while (cluster.owner_of(key) != 0) ++key;  // owned by A

  // Warm the lane to A while it is healthy: drain is observed through
  // replies on connections that already exist.
  JsonValue ping = JsonValue::make_object();
  ping.set("cmd", JsonValue::make_string("ping"));
  std::string error;
  ASSERT_TRUE(cluster.call(ping, key, &error)) << error;

  // Park a job on A, then start its graceful drain.
  fault::ScopedPlan scoped(parked_job_delay());
  Client occupier;
  ASSERT_TRUE(occupier.connect("127.0.0.1", port_a));
  ASSERT_TRUE(
      occupier.send(parked_request(gen_con(3, 30, 34), "slow", 16).dump()));
  const obs::MetricsRegistry& net = a->metrics();
  for (int i = 0; i < 500 && net.counter_value("net/requests_admitted") < 1;
       ++i)
    sleep_ms(2);
  ASSERT_GE(net.counter_value("net/requests_admitted"), 1u);
  a->request_shutdown();
  // Drain closes the main listener; poll until a fresh connect is
  // refused so the draining state is guaranteed visible.
  bool drained = false;
  for (int i = 0; i < 500 && !drained; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_a);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    drained =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0;
    ::close(fd);
    if (!drained) sleep_ms(2);
  }
  ASSERT_TRUE(drained);

  // A key owned by A now bounces off its shutting_down reply and is
  // answered by B.
  const std::string con = gen_con(4);
  ClusterClient::CallInfo info;
  auto reply = cluster.call(inline_request(con, "drain-1"), key, &error, &info);
  ASSERT_TRUE(reply) << error;
  EXPECT_FALSE(reply->find("error")) << reply->dump();
  EXPECT_EQ(info.backend, 1);
  EXPECT_TRUE(info.rerouted);
  EXPECT_TRUE(cluster.draining(0));
  EXPECT_GE(cluster.stats().drains_observed, 1u);

  // Let A finish its parked job and exit, then roll it back in on the
  // SAME ports — the restarted node must re-enter rotation via /healthz.
  EXPECT_TRUE(occupier.recv());
  a->stop();
  a = std::make_unique<Server>(oa);
  a->start();
  sleep_ms(50);  // past health_recheck_ms

  // First call re-probes A (200 -> rejoin) but may still trip over the
  // stale pre-restart connection in the lane; the one after must land
  // on A proper.
  ASSERT_TRUE(cluster.call(inline_request(con, "rejoin-1"), key, &error))
      << error;
  EXPECT_GE(cluster.stats().rejoins, 1u);
  EXPECT_FALSE(cluster.draining(0));
  reply = cluster.call(inline_request(con, "rejoin-2"), key, &error, &info);
  ASSERT_TRUE(reply) << error;
  EXPECT_FALSE(reply->find("error")) << reply->dump();
  EXPECT_EQ(info.backend, 0) << "restarted owner never re-entered rotation";

  a->stop();
  b.stop();
}

TEST(Cluster, PeerForwardingAdoptsTheOwnersCachedResult) {
  const uint16_t port_a = free_port();
  const uint16_t port_b = free_port();
  const std::vector<ClusterMember> peers = {
      ClusterMember{"127.0.0.1", port_a}, ClusterMember{"127.0.0.1", port_b}};

  ServerOptions oa;
  oa.service.num_threads = 2;
  oa.port = port_a;
  oa.peers = peers;
  oa.self = peers[0].name();
  ServerOptions ob = oa;
  ob.port = port_b;
  ob.self = peers[1].name();

  Server a(oa), b(ob);
  a.start();
  b.start();

  // A problem whose ring owner is A — found by scanning generator seeds
  // with the same ring the servers built.
  HashRing ring({peers[0].name(), peers[1].name()});
  std::string con;
  for (uint64_t seed = 1;; ++seed) {
    con = gen_con(seed);
    if (ring.owner(con_route_key(con)) == 0) break;
  }

  Client to_a, to_b;
  ASSERT_TRUE(to_a.connect("127.0.0.1", port_a));
  ASSERT_TRUE(to_b.connect("127.0.0.1", port_b));
  std::string error;

  // Cold miss through the NON-owner: B detours via the probe thread,
  // peeks A (miss), and encodes locally.
  auto cold = to_b.call(inline_request(con, "cold"), &error);
  ASSERT_TRUE(cold) << error;
  ASSERT_FALSE(cold->find("error")) << cold->dump();
  EXPECT_EQ(cold->find("cached")->as_int(), 0);
  EXPECT_EQ(b.metrics().counter_value("cluster/peek_attempts"), 1u);
  EXPECT_EQ(b.metrics().counter_value("cluster/peek_misses"), 1u);
  EXPECT_EQ(a.metrics().counter_value("cluster/peeks_served"), 1u);

  // Warm the owner with a DIFFERENT problem (also A-owned), then ask the
  // non-owner: the peek hits, the record is adopted, and the reply is a
  // cache hit bit-identical to the owner's.
  std::string con2;
  for (uint64_t seed = 1000;; ++seed) {
    con2 = gen_con(seed);
    if (con2 != con && ring.owner(con_route_key(con2)) == 0) break;
  }
  auto owner_reply = to_a.call(inline_request(con2, "warm"), &error);
  ASSERT_TRUE(owner_reply) << error;
  ASSERT_FALSE(owner_reply->find("error")) << owner_reply->dump();

  auto forwarded = to_b.call(inline_request(con2, "fwd"), &error);
  ASSERT_TRUE(forwarded) << error;
  ASSERT_FALSE(forwarded->find("error")) << forwarded->dump();
  EXPECT_EQ(forwarded->find("cached")->as_int(), 1)
      << "the peer hit was not adopted";
  EXPECT_EQ(forwarded->find("enc")->as_string(),
            owner_reply->find("enc")->as_string())
      << "forwarded result is not bit-identical to the owner's";
  EXPECT_EQ(forwarded->find("cubes")->as_int(),
            owner_reply->find("cubes")->as_int());
  EXPECT_EQ(b.metrics().counter_value("cluster/forwarded_hits"), 1u);

  a.stop();
  b.stop();
}

// Satellite regression: the drain snapshot is taken BEFORE the final
// admitted request is answered, so a client that saw the last reply can
// restart the node and find everything it was told in the warm cache.
TEST(Cluster, DrainSnapshotsThePersistCacheBeforeTheFinalReply) {
  const std::string dir = ::testing::TempDir() + "picola_drain_snap_" +
                          std::to_string(::getpid());
  ServerOptions so;
  so.service.num_threads = 2;
  so.service.cache_dir = dir;
  so.service.snapshot_interval_s = -1;  // ONLY drain/shutdown snapshots

  Server server(so);
  server.start();

  // The job is still in flight when the drain starts.
  fault::ScopedPlan scoped(parked_job_delay());
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c.send(parked_request(gen_con(9, 20, 24), "final", 8).dump()));
  const obs::MetricsRegistry& net = server.metrics();
  for (int i = 0; i < 500 && net.counter_value("net/requests_admitted") < 1;
       ++i)
    sleep_ms(2);
  ASSERT_GE(net.counter_value("net/requests_admitted"), 1u);
  server.request_shutdown();

  auto payload = c.recv();
  ASSERT_TRUE(payload);
  std::string parse_error;
  auto reply = JsonValue::parse(*payload, &parse_error);
  ASSERT_TRUE(reply) << parse_error;
  ASSERT_FALSE(reply->find("error")) << reply->dump();

  // The reply is on the wire, so the snapshot must already be durable —
  // load the cache dir NOW, before the server object is even stopped.
  EXPECT_EQ(server.service().metrics().counter_value("persist/drain_snapshots"),
            1u);
  persist::StoreOptions store_opt;
  store_opt.dir = dir;
  store_opt.snapshot_interval_s = -1;
  ResultCache verify_cache(16, 1);
  persist::CacheStore verify_store(store_opt);
  persist::LoadStats ls = verify_store.load(&verify_cache);
  EXPECT_GE(ls.snapshot_records, 1u)
      << "final reply sent before the drain snapshot was durable";
  EXPECT_EQ(verify_cache.size(), 1u);

  server.stop();
}

}  // namespace
}  // namespace picola::net
