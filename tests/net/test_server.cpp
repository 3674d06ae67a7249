// net/server.h — loopback integration tests of the TCP encoding server:
// protocol correctness and bit-identity with the stdin serve path, plus
// the robustness behaviours the server exists for — load shedding,
// deadlines with job cancellation, idle timeouts, oversized frames,
// write ordering under pipelining, and graceful drain.

#include "net/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/instance_gen.h"
#include "cli/cli.h"
#include "constraints/constraint_io.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss_io.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/json.h"

namespace picola::net {
namespace {

std::string example(const std::string& name) {
  return std::string(PICOLA_EXAMPLES_DIR) + "/" + name;
}

ServerOptions base_options() {
  ServerOptions o;
  o.service.num_threads = 2;
  o.service.cache_capacity = 64;
  return o;
}

/// A deterministically generated instance big enough that one job with
/// many restarts keeps a worker busy for a while (deadline/shed tests).
const std::string& slow_con() {
  static const std::string text = [] {
    check::GeneratorOptions g;
    g.min_symbols = 40;
    g.max_symbols = 44;
    g.max_constraints = 10;
    check::InstanceGenerator gen(7, g);
    return write_constraints(gen.next().set);
  }();
  return text;
}

JsonValue encode_request(const std::string& path) {
  JsonValue r = JsonValue::make_object();
  r.set("path", JsonValue::make_string(path));
  return r;
}

JsonValue inline_request(const std::string& con) {
  JsonValue r = JsonValue::make_object();
  r.set("con", JsonValue::make_string(con));
  return r;
}

std::string str_field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f && f->is_string() ? f->as_string() : "";
}

int64_t int_field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f && f->is_number() ? f->as_int() : -1;
}

/// A net/* counter or gauge, read from the server's registry.
uint64_t net_counter(const Server& server, const std::string& name) {
  return server.metrics().counter_value("net/" + name);
}
int64_t net_gauge(const Server& server, const std::string& name) {
  return server.metrics().gauge_value("net/" + name);
}

/// Spin until `pred` holds (5 s cap) — for counters the loop thread
/// updates asynchronously.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(NetServer, PingStatsMetricsRoundTrip) {
  Server server(base_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));

  JsonValue ping = JsonValue::make_object();
  ping.set("cmd", JsonValue::make_string("ping"));
  ping.set("id", JsonValue::make_int(7));
  auto r = c.call(ping);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->find("ok"));
  EXPECT_EQ(int_field(*r, "id"), 7);  // id echoed verbatim

  JsonValue stats = JsonValue::make_object();
  stats.set("cmd", JsonValue::make_string("stats"));
  r = c.call(stats);
  ASSERT_TRUE(r);
  ASSERT_TRUE(r->find("net"));
  EXPECT_EQ(int_field(*r->find("net"), "connections_accepted"), 1);
  ASSERT_TRUE(r->find("service"));

  JsonValue metrics = JsonValue::make_object();
  metrics.set("cmd", JsonValue::make_string("metrics"));
  r = c.call(metrics);
  ASSERT_TRUE(r);
  // The net/* registry is wired through: counters appear in the report.
  const JsonValue* net = r->find("net");
  ASSERT_TRUE(net && net->find("counters"));
  EXPECT_TRUE(net->find("counters")->find("net/frames_in"));
  EXPECT_TRUE(net->find("histograms"));
  server.stop();
}

TEST(NetServer, EncodeMatchesStdinServeBitForBit) {
  Server server(base_options());
  server.start();

  // The same requests through the legacy stdin front-end...
  std::string input = example("overlap.con") + "\n" +
                      example("paper_fig1.con") + "\n";
  std::istringstream stdin_in(input);
  std::ostringstream stdin_out, stdin_err;
  ASSERT_EQ(cli::run({"serve"}, stdin_in, stdin_out, stdin_err), 0);

  // ...and through the TCP client front-end, whose ok-lines are
  // byte-compatible by contract.
  std::istringstream tcp_in(input);
  std::ostringstream tcp_out, tcp_err;
  ASSERT_EQ(cli::run({"client", "127.0.0.1:" + std::to_string(server.port())},
                     tcp_in, tcp_out, tcp_err),
            0)
      << tcp_err.str();

  auto ok_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
      if (line.rfind("ok ", 0) == 0) {
        // Drop the trailing cached= field: the two front-ends may hit
        // their caches differently; the encoding itself must not differ.
        lines.push_back(line.substr(0, line.rfind(" cached=")));
      }
    return lines;
  };
  auto a = ok_lines(stdin_out.str());
  auto b = ok_lines(tcp_out.str());
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a, b);
  server.stop();
}

TEST(NetServer, ConcurrentClientsGetIdenticalEncodings) {
  Server server(base_options());
  server.start();
  constexpr int kClients = 4;
  std::vector<std::string> encs(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c;
      ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
      auto r = c.call(encode_request(example("overlap.con")));
      ASSERT_TRUE(r) << "client " << i;
      encs[static_cast<size_t>(i)] = str_field(*r, "enc");
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(encs[size_t(i)], encs[0]);
  EXPECT_EQ(encs[0].size(), 16u);  // a real hex64 content hash
  server.stop();
}

TEST(NetServer, InlineConEquivalentToPathRequest) {
  Server server(base_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  auto by_path = c.call(encode_request(example("overlap.con")));
  ASSERT_TRUE(by_path) << "path request failed";
  std::ifstream in(example("overlap.con"));
  std::stringstream ss;
  ss << in.rdbuf();
  auto by_con = c.call(inline_request(ss.str()));
  ASSERT_TRUE(by_con);
  EXPECT_EQ(str_field(*by_path, "enc"), str_field(*by_con, "enc"));
  EXPECT_EQ(int_field(*by_path, "cubes"), int_field(*by_con, "cubes"));
  server.stop();
}

TEST(NetServer, DeadlineExceededAnswersEarlyAndCancelsJob) {
  ServerOptions o = base_options();
  o.service.num_threads = 1;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));

  JsonValue req = inline_request(slow_con());
  req.set("restarts", JsonValue::make_int(256));
  req.set("deadline_ms", JsonValue::make_int(1));
  req.set("id", JsonValue::make_string("slow"));
  auto r = c.call(req);
  ASSERT_TRUE(r);
  EXPECT_EQ(str_field(*r, "error"), "deadline_exceeded");
  EXPECT_EQ(str_field(*r, "id"), "slow");
  EXPECT_EQ(int_field(*r, "deadline_ms"), 1);

  // The answered-late job must actually unwind: its CancelToken fired and
  // the admission slot frees without the client doing anything else.
  EXPECT_TRUE(eventually([&] { return net_gauge(server, "inflight") == 0; }));
  EXPECT_EQ(net_counter(server, "deadline_misses"), 1u);
  EXPECT_EQ(net_counter(server, "cancelled_jobs"), 1u);
  server.stop();
}

TEST(NetServer, DeadlineCoversParseAndDerivation) {
  // The request clock starts at frame decode: deriving keyb's face
  // constraints (several ms) already spends a 1 ms deadline, so even a
  // cached problem is answered deadline_exceeded and never admitted.
  Server server(base_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  const std::string keyb = write_kiss(make_benchmark("keyb"));
  auto warm = c.call(inline_request(keyb));
  ASSERT_TRUE(warm);
  ASSERT_TRUE(warm->find("ok")) << warm->dump();

  JsonValue req = inline_request(keyb);
  req.set("deadline_ms", JsonValue::make_int(1));
  req.set("id", JsonValue::make_string("late"));
  auto r = c.call(req);
  ASSERT_TRUE(r);
  EXPECT_EQ(str_field(*r, "error"), "deadline_exceeded") << r->dump();
  EXPECT_EQ(str_field(*r, "id"), "late");
  EXPECT_EQ(int_field(*r, "deadline_ms"), 1);
  EXPECT_EQ(net_counter(server, "deadline_misses"), 1u);
  EXPECT_EQ(net_counter(server, "requests_admitted"), 1u);
  EXPECT_EQ(net_gauge(server, "inflight"), 0);
  server.stop();
}

TEST(NetServer, OneStateMachineIsRefusedBeforeAdmission) {
  // A one-state KISS2 machine derives a 1-symbol set.  Like a `.con`
  // with `.n 1` it is answered bad_problem at parse time and never
  // reaches the pool.
  Server server(base_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  auto kiss = c.call(inline_request(
      ".i 2\n.o 6\n.p 2\n.s 1\n.r HG\n0- HG HG 100001\n10 HG HG 100001\n"));
  ASSERT_TRUE(kiss);
  EXPECT_EQ(str_field(*kiss, "error"), "bad_problem") << kiss->dump();
  EXPECT_EQ(str_field(*kiss, "detail"), "need at least 2 symbols");
  auto con = c.call(inline_request(".n 1\n.e\n"));
  ASSERT_TRUE(con);
  EXPECT_EQ(str_field(*con, "error"), "bad_problem") << con->dump();
  EXPECT_EQ(net_counter(server, "requests_admitted"), 0u);
  EXPECT_EQ(server.service().metrics().counter_value("service/jobs_submitted"),
            0u);
  server.stop();
}

TEST(NetServer, BackendFieldSelectsBackendAndIsEchoed) {
  Server server(base_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));

  // Default: the picola backend answers and is named in the reply.
  auto r = c.call(encode_request(example("overlap.con")));
  ASSERT_TRUE(r);
  EXPECT_EQ(str_field(*r, "backend"), "picola");

  // Explicit backend: the winning backend comes back.
  JsonValue req = encode_request(example("overlap.con"));
  req.set("backend", JsonValue::make_string("anneal"));
  r = c.call(req);
  ASSERT_TRUE(r);
  EXPECT_FALSE(r->find("error")) << r->dump();
  EXPECT_EQ(str_field(*r, "backend"), "anneal");

  // An unknown backend is a typed bad_request, not a hang or a crash.
  req.set("backend", JsonValue::make_string("cplex"));
  r = c.call(req);
  ASSERT_TRUE(r);
  EXPECT_EQ(str_field(*r, "error"), "bad_request");
  server.stop();
}

TEST(NetServer, DeadlineCancelsLongSatRun) {
  // The satellite requirement: a TCP deadline must unwind a long SAT
  // solve through the solver's CancelToken hooks, freeing the admission
  // slot — not leave the pool burning on an abandoned search.
  ServerOptions o = base_options();
  o.service.num_threads = 1;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));

  JsonValue req = inline_request(slow_con());
  req.set("backend", JsonValue::make_string("sat"));
  req.set("deadline_ms", JsonValue::make_int(1));
  req.set("id", JsonValue::make_string("slow-sat"));
  auto r = c.call(req);
  ASSERT_TRUE(r);
  EXPECT_EQ(str_field(*r, "error"), "deadline_exceeded");
  EXPECT_EQ(str_field(*r, "id"), "slow-sat");

  EXPECT_TRUE(eventually([&] { return net_gauge(server, "inflight") == 0; }));
  EXPECT_EQ(net_counter(server, "deadline_misses"), 1u);
  EXPECT_EQ(net_counter(server, "cancelled_jobs"), 1u);
  server.stop();
}

TEST(NetServer, ShedsAboveMaxInflightWithRetryAfter) {
  ServerOptions o = base_options();
  o.service.num_threads = 1;
  o.max_inflight = 1;
  o.retry_after_ms = 123;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));

  // Pipeline two requests in back-to-back frames: #1 admits and occupies
  // the only slot, #2 must shed — deterministically, because the loop
  // handles both frames before it can possibly retire #1.
  JsonValue slow = inline_request(slow_con());
  slow.set("restarts", JsonValue::make_int(64));
  slow.set("id", JsonValue::make_string("first"));
  JsonValue second = encode_request(example("overlap.con"));
  second.set("id", JsonValue::make_string("second"));
  ASSERT_TRUE(c.send(slow.dump()));
  ASSERT_TRUE(c.send(second.dump()));

  // The shed answer overtakes the slow job's answer.
  auto shed = c.recv();
  ASSERT_TRUE(shed);
  auto shed_json = JsonValue::parse(*shed);
  ASSERT_TRUE(shed_json);
  EXPECT_EQ(str_field(*shed_json, "error"), "overloaded");
  EXPECT_EQ(str_field(*shed_json, "id"), "second");
  EXPECT_EQ(int_field(*shed_json, "retry_after_ms"), 123);

  auto ok = c.recv();
  ASSERT_TRUE(ok);
  auto ok_json = JsonValue::parse(*ok);
  ASSERT_TRUE(ok_json);
  EXPECT_EQ(str_field(*ok_json, "id"), "first");
  EXPECT_TRUE(ok_json->find("ok"));

  EXPECT_EQ(net_counter(server, "sheds"), 1u);
  // After the slot freed, the same request is admitted.
  auto retry = c.call(second);
  ASSERT_TRUE(retry);
  EXPECT_TRUE(retry->find("ok"));
  server.stop();
}

TEST(NetServer, IdleConnectionsAreClosed) {
  ServerOptions o = base_options();
  o.idle_timeout_ms = 50;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  JsonValue ping = JsonValue::make_object();
  ping.set("cmd", JsonValue::make_string("ping"));
  ASSERT_TRUE(c.call(ping));
  // Then we go quiet; the server hangs up on us.
  auto r = c.recv();
  EXPECT_FALSE(r);
  EXPECT_TRUE(
      eventually([&] { return net_counter(server, "idle_closed") == 1; }));
  server.stop();
}

TEST(NetServer, OversizedFrameRejectedThenClosed) {
  ServerOptions o = base_options();
  o.max_frame_bytes = 256;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c.send(std::string(1000, '{')));  // declared length 1000 > 256
  auto r = c.recv();
  ASSERT_TRUE(r);
  auto err = JsonValue::parse(*r);
  ASSERT_TRUE(err);
  EXPECT_EQ(str_field(*err, "error"), "frame_too_large");
  EXPECT_EQ(int_field(*err, "max_frame_bytes"), 256);
  EXPECT_EQ(int_field(*err, "declared_bytes"), 1000);
  // Framing is lost, so the server closes after flushing the error.
  EXPECT_FALSE(c.recv());
  EXPECT_EQ(net_counter(server, "frame_errors"), 1u);
  server.stop();
}

TEST(NetServer, MalformedRequestsGetTypedErrors) {
  ServerOptions o = base_options();
  o.allow_paths = false;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));

  ASSERT_TRUE(c.send("this is not json"));
  auto r = c.recv();
  ASSERT_TRUE(r);
  EXPECT_EQ(str_field(*JsonValue::parse(*r), "error"), "bad_request");

  JsonValue unknown = JsonValue::make_object();
  unknown.set("cmd", JsonValue::make_string("frobnicate"));
  auto u = c.call(unknown);
  ASSERT_TRUE(u);
  EXPECT_EQ(str_field(*u, "error"), "bad_request");

  auto bad_con = c.call(inline_request("not a constraint file"));
  ASSERT_TRUE(bad_con);
  EXPECT_EQ(str_field(*bad_con, "error"), "bad_problem");

  // Server-side file reads are disabled on this instance.
  auto by_path = c.call(encode_request(example("overlap.con")));
  ASSERT_TRUE(by_path);
  EXPECT_EQ(str_field(*by_path, "error"), "paths_disabled");

  JsonValue bad_restarts = inline_request(slow_con());
  bad_restarts.set("restarts", JsonValue::make_int(100000));
  auto br = c.call(bad_restarts);
  ASSERT_TRUE(br);
  EXPECT_EQ(str_field(*br, "error"), "bad_request");
  server.stop();
}

TEST(NetServer, FieldChecksPrecedeTheProblemParse) {
  // A request that is wrong in both ways is rejected for its field,
  // without paying for the parse.
  Server server(base_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  JsonValue both = inline_request("not a constraint file");
  both.set("restarts", JsonValue::make_int(0));
  auto r = c.call(both);
  ASSERT_TRUE(r);
  EXPECT_EQ(str_field(*r, "error"), "bad_request");
  EXPECT_EQ(str_field(*r, "detail"), "restarts must be in [1, 1024]");
  server.stop();
}

TEST(NetServer, GracefulDrainAnswersInflightThenExits) {
  ServerOptions o = base_options();
  o.service.num_threads = 1;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  JsonValue slow = inline_request(slow_con());
  slow.set("restarts", JsonValue::make_int(32));
  ASSERT_TRUE(c.send(slow.dump()));
  // Drain only promises to answer *admitted* work, so make sure the
  // request frame was read and admitted before pulling the trigger.
  ASSERT_TRUE(eventually(
      [&] { return net_counter(server, "requests_admitted") == 1; }));

  // SIGTERM path: request_shutdown() is what the signal handler calls.
  server.request_shutdown();
  // The already-admitted job is still answered...
  auto r = c.recv();
  ASSERT_TRUE(r);
  EXPECT_TRUE(JsonValue::parse(*r)->find("ok"));
  // ...then the connection closes and the loop thread exits.
  EXPECT_FALSE(c.recv());
  server.stop();  // joins; hangs here = drain failed
  // Once drained, the listener is gone.
  Client late;
  EXPECT_FALSE(late.connect("127.0.0.1", server.port()));
}

TEST(NetServer, ShutdownCommandDrains) {
  Server server(base_options());
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  JsonValue req = JsonValue::make_object();
  req.set("cmd", JsonValue::make_string("shutdown"));
  auto r = c.call(req);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->find("draining"));
  // New encode requests on a draining server are refused, not queued.
  // (The connection may instead already be closed by the drain — both are
  // acceptable shutdown narratives for an in-flight client.)
  if (c.send(encode_request(example("overlap.con")).dump())) {
    if (auto resp = c.recv()) {
      EXPECT_EQ(str_field(*JsonValue::parse(*resp), "error"),
                "shutting_down");
    }
  }
  server.stop();
}

TEST(NetServer, DisconnectCancelsOutstandingJobs) {
  ServerOptions o = base_options();
  o.service.num_threads = 1;
  Server server(o);
  server.start();
  {
    Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
    JsonValue slow = inline_request(slow_con());
    slow.set("restarts", JsonValue::make_int(256));
    ASSERT_TRUE(c.send(slow.dump()));
    // Walk away without reading the answer.
  }
  EXPECT_TRUE(eventually([&] {
    return net_gauge(server, "inflight") == 0 &&
           net_counter(server, "cancelled_jobs") == 1;
  }));
  server.stop();
}

TEST(NetServer, PollBackendServesRequests) {
  ServerOptions o = base_options();
  o.use_poll = true;
  Server server(o);
  server.start();
  Client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  auto r = c.call(encode_request(example("overlap.con")));
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->find("ok"));
  EXPECT_EQ(str_field(*r, "enc").size(), 16u);
  server.stop();
}

}  // namespace
}  // namespace picola::net
