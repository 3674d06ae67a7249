// net/client.h resilience layer: timeouts, reconnects, seeded full-jitter
// backoff, retry_after_ms honoring, the circuit breaker — and the server
// surviving injected EINTR/short-I/O storms (the regression tests for the
// raw-syscall audit: every net/ call site now loops on EINTR and writes
// with MSG_NOSIGNAL).

#include "net/client.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>

#include "check/instance_gen.h"
#include "constraints/constraint_io.h"
#include "fault/fault.h"
#include "net/json.h"
#include "net/server.h"

namespace picola::net {
namespace {

JsonValue ping_request() {
  JsonValue r = JsonValue::make_object();
  r.set("cmd", JsonValue::make_string("ping"));
  return r;
}

JsonValue inline_request(const std::string& con, int restarts = 1) {
  JsonValue r = JsonValue::make_object();
  r.set("con", JsonValue::make_string(con));
  r.set("restarts", JsonValue::make_int(restarts));
  return r;
}

const std::string& small_con() {
  static const std::string text = [] {
    check::GeneratorOptions g;
    g.min_symbols = 5;
    g.max_symbols = 8;
    g.max_constraints = 4;
    check::InstanceGenerator gen(3, g);
    return write_constraints(gen.next().set);
  }();
  return text;
}

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

/// An ephemeral port with nothing listening behind it.
uint16_t dead_port() {
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

TEST(ClientRetry, BackoffIsSeededFullJitter) {
  ClientOptions o;
  o.backoff_base_ms = 8;
  o.backoff_max_ms = 64;
  o.jitter_seed = 123;
  Client a(o), b(o);
  for (int i = 0; i < 8; ++i) {
    int d = a.backoff_delay_ms(i);
    EXPECT_GE(d, 0);
    EXPECT_LE(d, 64);  // capped even when 8 << i overflows the cap
    EXPECT_EQ(d, b.backoff_delay_ms(i));  // same seed, same sequence
  }
  o.jitter_seed = 124;
  Client c(o);
  bool any_diff = false;
  Client a2(ClientOptions{.backoff_base_ms = 8, .backoff_max_ms = 64,
                          .jitter_seed = 123});
  for (int i = 0; i < 8; ++i)
    any_diff |= (a2.backoff_delay_ms(i) != c.backoff_delay_ms(i));
  EXPECT_TRUE(any_diff);
}

TEST(ClientRetry, IoTimeoutOnSilentPeer) {
  // A listener that never accepts: the connection parks in the backlog,
  // the request is swallowed, and recv() must give up on time.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(fd, 8), 0);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);

  ClientOptions o;
  o.io_timeout_ms = 100;
  Client c(o);
  ASSERT_TRUE(c.connect("127.0.0.1", ntohs(addr.sin_port)));
  std::string error;
  auto reply = c.call(ping_request(), &error);
  EXPECT_FALSE(reply);
  EXPECT_NE(error.find("timeout"), std::string::npos) << error;
  EXPECT_FALSE(c.connected());  // a timed-out connection is unusable
  ::close(fd);
}

TEST(ClientRetry, CircuitBreakerOpensAndFailsFast) {
  ClientOptions o;
  o.connect_timeout_ms = 200;
  o.max_retries = 10;
  o.backoff_base_ms = 1;
  o.backoff_max_ms = 2;
  o.breaker_threshold = 3;
  o.breaker_open_ms = 40;
  Client c(o);
  std::string error;
  ASSERT_FALSE(c.connect("127.0.0.1", dead_port(), &error));
  auto reply = c.call_with_retry(ping_request(), &error);
  EXPECT_FALSE(reply);
  EXPECT_GE(c.stats().breaker_opens, 1u);  // threshold reached mid-budget
  EXPECT_GE(c.stats().breaker_waits, 1u);  // later attempts failed fast
}

TEST(ClientRetry, ReconnectsAndSucceedsUnderInjectedTransportFaults) {
  Server server([] {
    ServerOptions o;
    o.service.num_threads = 2;
    return o;
  }());
  server.start();

  fault::FaultPlan plan(5);
  // The very first reads in the process are the server reading this
  // request, so the resets are guaranteed to kill the client's first two
  // attempts; the reconnects then eat the interrupted connects (the
  // client's own first connect was call 0).
  plan.add({"net/read", {fault::Kind::kErrno, ECONNRESET, 0, 0}, 0, 1, 2});
  plan.add({"net/connect", {fault::Kind::kErrno, EINTR, 0, 0}, 1, 1, 2});
  fault::ScopedPlan scoped(std::move(plan));

  ClientOptions o;
  o.max_retries = 20;
  o.backoff_base_ms = 1;
  o.backoff_max_ms = 4;
  Client c(o);
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  std::string error;
  auto reply = c.call_with_retry(inline_request(small_con()), &error);
  ASSERT_TRUE(reply) << error;
  EXPECT_FALSE(reply->find("error"));
#ifndef PICOLA_FAULT_DISABLED
  EXPECT_GE(c.stats().retries, 1u);
#endif
  server.stop();
}

TEST(ClientRetry, HonorsRetryAfterMsWhenShed) {
  ServerOptions so;
  so.service.num_threads = 2;
  so.max_inflight = 1;
  so.retry_after_ms = 5;
  Server server(so);
  server.start();

  // Occupy the only slot with a slow job on its own connection, and wait
  // until the server has actually read the frame (admission is
  // synchronous with the read) before racing the second request in.
  Client occupier;
  ASSERT_TRUE(occupier.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(occupier.send(inline_request(slow_con(), 64).dump()));
  const obs::MetricsRegistry& net = server.metrics();
  for (int i = 0; i < 500 && net.counter_value("net/frames_in") < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_GE(net.counter_value("net/frames_in"), 1u);

  ClientOptions o;
  o.max_retries = 2000;
  o.backoff_base_ms = 1;
  o.backoff_max_ms = 8;
  Client c(o);
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  std::string error;
  auto reply = c.call_with_retry(inline_request(small_con()), &error);
  ASSERT_TRUE(reply) << error;
  EXPECT_FALSE(reply->find("error"));  // eventually admitted and answered
  EXPECT_GE(c.stats().overloaded, 1u);  // was shed at least once first
  EXPECT_TRUE(occupier.recv());         // the slow job also completed
  server.stop();
}

TEST(ClientRetry, ServerSurvivesEintrAndShortIoStorm) {
  // Regression for the raw-syscall audit: interrupted waits, interrupted
  // accepts, resets and byte-at-a-time reads must not wedge the loop or
  // kill the process, and admitted requests still get answers.
  Server server([] {
    ServerOptions o;
    o.service.num_threads = 2;
    return o;
  }());
  server.start();

  fault::FaultPlan plan(11);
  plan.add({"net/epoll_wait", {fault::Kind::kErrno, EINTR, 0, 0}, 0, 2, 6});
  plan.add({"net/accept", {fault::Kind::kErrno, EINTR, 0, 0}, 0, 1, 1});
  plan.add({"net/accept", {fault::Kind::kErrno, ECONNABORTED, 0, 0}, 1, 1, 1});
  plan.add({"net/read", {fault::Kind::kShortIo, 0, 1, 0}, 0, 1, 64});
  plan.add({"net/close", {fault::Kind::kErrno, EINTR, 0, 0}, 0, 1, 4});
  fault::ScopedPlan scoped(std::move(plan));

  ClientOptions o;
  o.max_retries = 20;
  o.backoff_base_ms = 1;
  o.backoff_max_ms = 4;
  Client c(o);
  bool up = false;
  for (int i = 0; i < 10 && !up; ++i)
    up = c.connect("127.0.0.1", server.port());
  ASSERT_TRUE(up);
  std::string error;
  for (int i = 0; i < 3; ++i) {
    auto reply = c.call_with_retry(inline_request(small_con()), &error);
    ASSERT_TRUE(reply) << error;
    EXPECT_FALSE(reply->find("error"));
  }
  server.stop();
}

}  // namespace
}  // namespace picola::net
