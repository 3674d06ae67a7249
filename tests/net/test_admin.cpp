// Admin HTTP plane (net/server.h, ISSUE 7) — loopback tests of the
// /metrics Prometheus exporter, /healthz drain signalling and /statusz,
// plus wire-level trace propagation and the slow-request log.
//
// These run in the ASan and TSan CI legs: the scrape-under-hammer test
// is precisely the cross-thread traffic (8 encode clients + admin
// scrapes through one event loop) that a data race would surface in.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/hex.h"
#include "check/instance_gen.h"
#include "constraints/constraint_io.h"
#include "fault/fault.h"
#include "http_get.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace picola::net {
namespace {

ServerOptions admin_options() {
  ServerOptions o;
  o.service.num_threads = 2;
  o.service.cache_capacity = 64;
  o.admin_port = 0;  // ephemeral
  return o;
}

const std::string& small_con() {
  static const std::string text = [] {
    check::GeneratorOptions g;
    g.min_symbols = 6;
    g.max_symbols = 8;
    g.max_constraints = 4;
    check::InstanceGenerator gen(21, g);
    return write_constraints(gen.next().set);
  }();
  return text;
}

/// Parse an exposition body into name -> value, checking every line is
/// either a comment or `name[{labels}] value`.  Histogram samples keep
/// their label text in the key, so two scrapes compare sample-for-sample.
std::map<std::string, double> parse_exposition(const std::string& body,
                                               bool* parse_ok) {
  std::map<std::string, double> out;
  *parse_ok = true;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only "# TYPE <name> <kind>" comments are emitted.
      if (line.rfind("# TYPE ", 0) != 0) *parse_ok = false;
      continue;
    }
    size_t val_at = line.rfind(' ');
    if (val_at == std::string::npos || val_at + 1 >= line.size()) {
      *parse_ok = false;
      continue;
    }
    std::string name = line.substr(0, val_at);
    char* end = nullptr;
    double v = std::strtod(line.c_str() + val_at + 1, &end);
    if (end == line.c_str() + val_at + 1) {
      *parse_ok = false;
      continue;
    }
    // Metric names must be mangled: picola_ prefix, no '/' anywhere.
    if (name.rfind("picola_", 0) != 0 ||
        name.find('/') != std::string::npos)
      *parse_ok = false;
    out[name] = v;
  }
  return out;
}

JsonValue inline_request(const std::string& con) {
  JsonValue r = JsonValue::make_object();
  r.set("con", JsonValue::make_string(con));
  return r;
}

template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(AdminPlane, StatuszHealthzAndErrorRoutes) {
  Server server(admin_options());
  server.start();
  ASSERT_NE(server.admin_port(), 0);

  auto health = http_get(server.admin_port(), "/healthz");
  ASSERT_TRUE(health);
  EXPECT_EQ(health->first, 200);
  EXPECT_EQ(health->second, "ok\n");

  auto statusz = http_get(server.admin_port(), "/statusz");
  ASSERT_TRUE(statusz);
  EXPECT_EQ(statusz->first, 200);
  std::string err;
  auto parsed = JsonValue::parse(statusz->second, &err);
  ASSERT_TRUE(parsed) << err;
  EXPECT_TRUE(parsed->find("uptime_seconds"));
  EXPECT_TRUE(parsed->find("build"));
  EXPECT_TRUE(parsed->find("cache"));
  EXPECT_TRUE(parsed->find("backends"));
  const JsonValue* build = parsed->find("build");
  ASSERT_TRUE(build);
  EXPECT_TRUE(build->find("version"));
  EXPECT_TRUE(build->find("git_sha"));
  EXPECT_TRUE(build->find("sanitizer"));

  auto missing = http_get(server.admin_port(), "/nope");
  ASSERT_TRUE(missing);
  EXPECT_EQ(missing->first, 404);

  // Query strings are stripped before routing.
  auto with_query = http_get(server.admin_port(), "/healthz?probe=1");
  ASSERT_TRUE(with_query);
  EXPECT_EQ(with_query->first, 200);
  server.stop();
}

TEST(AdminPlane, MetricsScrapeParseableAndMonotoneUnderHammer) {
  Server server(admin_options());
  server.start();

  // 8 clients hammer inline encodes while the scrapes happen.
  std::atomic<bool> go{true};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&server, &go, &completed] {
      Client c;
      if (!c.connect("127.0.0.1", server.port())) return;
      while (go.load()) {
        auto r = c.call(inline_request(small_con()));
        if (!r) return;
        completed.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(eventually([&] { return completed.load() >= 8; }));

  auto scrape1 = http_get(server.admin_port(), "/metrics");
  ASSERT_TRUE(scrape1);
  EXPECT_EQ(scrape1->first, 200);
  bool ok1 = false;
  auto m1 = parse_exposition(scrape1->second, &ok1);
  EXPECT_TRUE(ok1) << "unparseable exposition line in first scrape";

  int before = completed.load();
  ASSERT_TRUE(eventually([&] { return completed.load() >= before + 8; }));

  auto scrape2 = http_get(server.admin_port(), "/metrics");
  ASSERT_TRUE(scrape2);
  bool ok2 = false;
  auto m2 = parse_exposition(scrape2->second, &ok2);
  EXPECT_TRUE(ok2) << "unparseable exposition line in second scrape";

  go.store(false);
  for (auto& t : clients) t.join();

  // The key families are present...
  for (const char* key :
       {"picola_net_responses_ok_total", "picola_net_wakeups_total",
        "picola_net_wakeup_reads_total", "picola_net_completions_total",
        "picola_pool_queue_wait_ns_count", "picola_pool_queue_depth",
        "picola_cache_shard0_ops_total", "picola_cache_entries",
        "picola_service_uptime_seconds",
        "picola_portfolio_picola_ns_count"}) {
    EXPECT_TRUE(m2.count(key)) << key << " missing from scrape";
  }
  EXPECT_TRUE(scrape2->second.find("picola_build_info{") !=
              std::string::npos);

  // ...and every counter sample is monotone between the two scrapes.
  int compared = 0;
  for (const auto& [name, v1] : m1) {
    if (name.find("_total") == std::string::npos &&
        name.find("_count") == std::string::npos &&
        name.find("_bucket") == std::string::npos)
      continue;
    auto it = m2.find(name);
    ASSERT_NE(it, m2.end()) << name << " vanished between scrapes";
    EXPECT_GE(it->second, v1) << name << " went backwards";
    ++compared;
  }
  EXPECT_GT(compared, 20);

  // Real traffic flowed through the contention metrics.
  EXPECT_GT(m2["picola_pool_queue_wait_ns_count"], 0);
  EXPECT_GT(m2["picola_net_wakeups_total"], 0);
  double shard_ops = 0;
  for (int i = 0; i < 8; ++i)
    shard_ops +=
        m2["picola_cache_shard" + std::to_string(i) + "_ops_total"];
  EXPECT_GT(shard_ops, 0);
  server.stop();
}

// Several tests below steer timing with injected faults, so they
// compile out of the PICOLA_FAULT_DISABLED build (like the injection
// tests in test_client_retry.cpp).
#ifndef PICOLA_FAULT_DISABLED

TEST(AdminPlane, HealthzReports503DuringDrain) {
  // Delay every restart task so the submitted job is still in flight
  // when the drain begins — deterministic, no timing guesswork.
  fault::FaultPlan plan(1);
  plan.add({"service/restart_task",
            {fault::Kind::kDelay, 0, 0, /*delay_ms=*/300},
            0, 1, 64, 1.0});
  fault::ScopedPlan scoped(std::move(plan));

  Server server(admin_options());
  server.start();
  const uint16_t admin_port = server.admin_port();

  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c.send(inline_request(small_con()).dump()));
  ASSERT_TRUE(eventually(
      [&] { return server.metrics().gauge_value("net/inflight") > 0; }));

  server.request_shutdown();
  // While the delayed job drains, the admin plane keeps serving and
  // reports not-ready.
  ASSERT_TRUE(eventually([&] {
    auto h = http_get(admin_port, "/healthz");
    return h && h->first == 503;
  }));

  auto resp = c.recv();  // the drained job still gets its answer
  EXPECT_TRUE(resp);
  server.stop();
}

TEST(AdminPlane, ExporterSurvivesFaultInjection) {
  Server server(admin_options());
  server.start();
  const uint16_t admin_port = server.admin_port();

  {
    // Inject transient EINTR/EAGAIN storms and short writes into the
    // same sys:: points the admin socket I/O uses.
    fault::FaultPlan plan(2);
    plan.add({"net/read", {fault::Kind::kErrno, EINTR, 0, 0}, 0, 2, 16, 1.0});
    plan.add({"net/write", {fault::Kind::kShortIo, 0, /*max_bytes=*/7, 0},
              0, 2, 16, 1.0});
    fault::ScopedPlan scoped(std::move(plan));
    auto h = http_get(admin_port, "/healthz");
    ASSERT_TRUE(h);
    EXPECT_EQ(h->first, 200);
    auto m = http_get(admin_port, "/metrics");
    ASSERT_TRUE(m);
    EXPECT_EQ(m->first, 200);
    bool ok = false;
    parse_exposition(m->second, &ok);
    EXPECT_TRUE(ok);
  }

  // Clean scrape after the plan is uninstalled: the loop is undamaged.
  auto after = http_get(admin_port, "/metrics");
  ASSERT_TRUE(after);
  EXPECT_EQ(after->first, 200);
  server.stop();
}

#endif  // PICOLA_FAULT_DISABLED

TEST(AdminPlane, TracePropagatesClientToRestartTask) {
  obs::set_enabled(true);
  obs::Tracer::global().set_tracing(true);
  obs::Tracer::global().clear();

  Server server(admin_options());
  server.start();

  ClientOptions copt;
  copt.trace_requests = true;
  Client c(copt);
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  auto resp = c.call(inline_request(small_con()));
  ASSERT_TRUE(resp);
  const uint64_t trace_id = c.last_trace_id();
  ASSERT_NE(trace_id, 0u);

  // The response echoes the id.
  const JsonValue* echoed = resp->find("trace_id");
  ASSERT_TRUE(echoed && echoed->is_string());
  EXPECT_EQ(echoed->as_string(), hex64(trace_id));

  server.stop();
  obs::Tracer::global().set_tracing(false);
  obs::set_enabled(false);

  // One trace holds the whole causal chain under a single id:
  // client/request -> net/request -> service/restart_task.
  bool saw_client = false, saw_net = false, saw_task = false;
  for (const auto& e : obs::Tracer::global().events()) {
    if (e.trace_id != trace_id) continue;
    std::string name = e.name;
    if (name == "client/request") saw_client = true;
    if (name == "net/request") saw_net = true;
    if (name == "service/restart_task") saw_task = true;
  }
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_net);
#ifndef PICOLA_OBS_DISABLED
  // The worker-side span comes from the PICOLA_OBS_SPAN macro layer,
  // which this build flag removes.
  EXPECT_TRUE(saw_task);
#else
  (void)saw_task;
#endif

  // And the Perfetto-loadable export carries it as an arg.
  std::string json = obs::Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find(hex64(trace_id)), std::string::npos);
  obs::Tracer::global().clear();
}

#ifndef PICOLA_FAULT_DISABLED

TEST(AdminPlane, SlowRequestLogBreaksDownWallTime) {
  ServerOptions o = admin_options();
  o.slow_request_ms = 1;  // everything is slow
  std::vector<std::string> lines;
  std::mutex lines_mu;
  o.slow_log = [&lines, &lines_mu](const std::string& line) {
    std::lock_guard<std::mutex> lock(lines_mu);
    lines.push_back(line);
  };
  // Make the job reliably slower than 1 ms.
  fault::FaultPlan plan(3);
  plan.add({"service/restart_task",
            {fault::Kind::kDelay, 0, 0, /*delay_ms=*/5},
            0, 1, 64, 1.0});
  fault::ScopedPlan scoped(std::move(plan));

  Server server(o);
  server.start();
  ClientOptions copt;
  copt.trace_requests = true;
  Client c(copt);
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c.call(inline_request(small_con())));
  server.stop();

  std::lock_guard<std::mutex> lock(lines_mu);
  ASSERT_FALSE(lines.empty());
  std::string err;
  auto parsed = JsonValue::parse(lines[0], &err);
  ASSERT_TRUE(parsed) << err << ": " << lines[0];
  const JsonValue* event = parsed->find("event");
  ASSERT_TRUE(event && event->is_string());
  EXPECT_EQ(event->as_string(), "slow_request");
  EXPECT_TRUE(parsed->find("wall_ms"));
  EXPECT_TRUE(parsed->find("queue_wait_ms"));
  EXPECT_TRUE(parsed->find("encode_ms"));
  EXPECT_TRUE(parsed->find("backend"));
  // The traced client's id is carried through to the log line.
  const JsonValue* tid = parsed->find("trace_id");
  ASSERT_TRUE(tid && tid->is_string());
  EXPECT_EQ(tid->as_string(), hex64(c.last_trace_id()));
}

#endif  // PICOLA_FAULT_DISABLED

TEST(AdminPlane, TcpMetricsCommandKeepsItsKeysAndGainsBuild) {
  Server server(admin_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  JsonValue req = JsonValue::make_object();
  req.set("cmd", JsonValue::make_string("metrics"));
  auto r = c.call(req);
  ASSERT_TRUE(r);
  // Compatibility surface: the pre-existing keys stay (docs/SERVICE.md),
  // the build provenance is additive.
  EXPECT_TRUE(r->find("ok"));
  EXPECT_TRUE(r->find("net"));
  EXPECT_TRUE(r->find("service"));
  EXPECT_TRUE(r->find("process"));
  ASSERT_TRUE(r->find("build"));
  EXPECT_TRUE(r->find("build")->find("git_sha"));
  // The new gauges ride in the service registry snapshot.
  const JsonValue* service = r->find("service");
  ASSERT_TRUE(service);
  const JsonValue* gauges = service->find("gauges");
  ASSERT_TRUE(gauges);
  EXPECT_TRUE(gauges->find("service/uptime_seconds"));
  EXPECT_TRUE(gauges->find("cache/entries"));
  EXPECT_TRUE(gauges->find("pool/queue_depth"));
  EXPECT_TRUE(gauges->find("pool/queue_depth_hwm"));
  server.stop();
}

TEST(AdminPlane, RejectsBadTraceIdAndOversizedRequest) {
  Server server(admin_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  JsonValue req = inline_request(small_con());
  req.set("trace_id", JsonValue::make_string("not-hex!"));
  auto r = c.call(req);
  ASSERT_TRUE(r);
  const JsonValue* err = r->find("error");
  ASSERT_TRUE(err && err->is_string());
  EXPECT_EQ(err->as_string(), "bad_request");

  // An admin request larger than the cap is answered 400, not buffered.
  auto huge = http_get(server.admin_port(),
                       "/metrics?pad=" + std::string(9000, 'x'));
  ASSERT_TRUE(huge);
  EXPECT_EQ(huge->first, 400);
  server.stop();
}

}  // namespace
}  // namespace picola::net
