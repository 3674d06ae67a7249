// fault/fault.h — the deterministic fault-injection framework: seeded
// plans are pure functions of (seed, point, call index), the sys shim
// and the service-layer hooks obey injected actions, and none of it
// exists (beyond one relaxed load) when no plan is installed.

#include "fault/fault.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/sys.h"
#include "service/result_cache.h"
#include "service/service.h"
#include "service/thread_pool.h"

namespace picola::fault {
namespace {

TEST(FaultPlan, InactiveByDefault) {
  EXPECT_FALSE(active());
  Action a = PICOLA_FAULT_POINT("nowhere");
  EXPECT_EQ(a.kind, Kind::kNone);
  EXPECT_FALSE(a);
}

TEST(FaultPlan, CounterRuleFiresAtExactIndices) {
  FaultPlan plan(1);
  plan.add({"p", {Kind::kErrno, EINTR, 0, 0}, /*after=*/2, /*every=*/3,
            /*max_fires=*/2});
  // Eligible indices: 2, 5 (then the fires cap ends it).
  std::vector<uint64_t> fired;
  for (uint64_t i = 0; i < 12; ++i)
    if (plan.decision("p", i)) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<uint64_t>{2, 5}));
  // consult() walks the same schedule, one call per index.
  for (uint64_t i = 0; i < 12; ++i) {
    Action want = plan.decision("p", i);
    Action got = plan.consult("p");
    EXPECT_EQ(got.kind, want.kind) << "index " << i;
  }
  auto st = plan.stats();
  EXPECT_EQ(st.at("p").calls, 12u);
  EXPECT_EQ(st.at("p").fires, 2u);
}

TEST(FaultPlan, FirstMatchingRuleWins) {
  FaultPlan plan(1);
  plan.add({"p", {Kind::kErrno, EINTR, 0, 0}, 0, 1, 1});
  plan.add({"p", {Kind::kErrno, EPIPE, 0, 0}, 0, 1, 100});
  EXPECT_EQ(plan.decision("p", 0).error, EINTR);  // first rule
  EXPECT_EQ(plan.decision("p", 1).error, EPIPE);  // first is spent
}

TEST(FaultPlan, ProbabilisticDecisionsAreIndexPure) {
  FaultPlan plan(99);
  Rule r;
  r.point = "p";
  r.action = {Kind::kErrno, EINTR, 0, 0};
  r.probability = 0.5;
  r.max_fires = UINT64_MAX;
  plan.add(r);
  int fires = 0;
  for (uint64_t i = 0; i < 256; ++i) {
    Action first = plan.decision("p", i);
    Action again = plan.decision("p", i);
    EXPECT_EQ(static_cast<bool>(first), static_cast<bool>(again));
    if (first) ++fires;
  }
  // A fair-ish coin: the seeded hash should land well inside (0, 256).
  EXPECT_GT(fires, 64);
  EXPECT_LT(fires, 192);
}

TEST(FaultPlan, CappedProbabilisticRuleRejected) {
  FaultPlan plan(1);
  Rule r;
  r.point = "p";
  r.action = {Kind::kErrno, EINTR, 0, 0};
  r.probability = 0.5;
  r.max_fires = 3;  // would make decisions depend on call history
  EXPECT_THROW(plan.add(r), std::invalid_argument);
}

TEST(FaultPlan, RandomPlansReproducibleFromSeed) {
  for (uint64_t seed : {1ull, 7ull, 12345ull}) {
    FaultPlan a = FaultPlan::random(seed);
    FaultPlan b = FaultPlan::random(seed);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.schedule_fingerprint(), b.schedule_fingerprint());
  }
  EXPECT_NE(FaultPlan::random(1).schedule_fingerprint(),
            FaultPlan::random(2).schedule_fingerprint());
}

TEST(PoolFault, TaskExceptionsCountsSubmitAndRawFailures) {
  // No injection involved: the bodies themselves throw.
  obs::MetricsRegistry reg;
  {
    ThreadPool pool(2, &reg);
    auto fut = pool.submit([]() -> int {
      throw std::runtime_error("submit body");
    });
    EXPECT_THROW(fut.get(), std::runtime_error);
    pool.post([]() { throw std::runtime_error("raw body"); });
    pool.wait_idle();
  }
  // Both bodies threw; only the raw one reached the worker's catch.
  EXPECT_EQ(reg.counter_value("pool/task_exceptions"), 2);
  EXPECT_EQ(reg.counter_value("pool/tasks_failed"), 1);
}

// Everything below exercises the injection sites themselves, which a
// PICOLA_FAULT_DISABLED build compiles out (tests/fault/
// test_fault_disabled.cpp covers the inert-macro semantics instead).
#ifndef PICOLA_FAULT_DISABLED

TEST(FaultPlan, ScopedInstallActivatesThePointMacro) {
  FaultPlan plan(1);
  plan.add({"scoped", {Kind::kErrno, EAGAIN, 0, 0}, 0, 1, 1});
  {
    ScopedPlan scoped(std::move(plan));
    EXPECT_TRUE(active());
    Action a = PICOLA_FAULT_POINT("scoped");
    EXPECT_EQ(a.kind, Kind::kErrno);
    EXPECT_EQ(a.error, EAGAIN);
    EXPECT_EQ(PICOLA_FAULT_POINT("scoped").kind, Kind::kNone);  // spent
  }
  EXPECT_FALSE(active());
  EXPECT_EQ(current(), nullptr);
}

TEST(SysShim, InjectedErrnoSkipsTheSyscall) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "hi", 2), 2);

  FaultPlan plan(1);
  plan.add({"net/read", {Kind::kErrno, EINTR, 0, 0}, 0, 1, 1});
  ScopedPlan scoped(std::move(plan));

  char buf[8];
  errno = 0;
  EXPECT_EQ(net::sys::read(fds[0], buf, sizeof buf), -1);
  EXPECT_EQ(errno, EINTR);
  // The data was not consumed: the retry gets all of it.
  EXPECT_EQ(net::sys::read(fds[0], buf, sizeof buf), 2);
  EXPECT_EQ(std::string(buf, 2), "hi");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SysShim, ShortReadsReassembleAFrame) {
  // Adversarial I/O for net/frame.h: a 300-byte frame delivered at most
  // 3 bytes per read — the length prefix itself arrives in pieces.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(296, 'q');
  const std::string frame = net::encode_frame(payload);
  ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ::close(fds[1]);

  FaultPlan plan(1);
  plan.add({"net/read", {Kind::kShortIo, 0, 3, 0}, 0, 1, 1'000'000});
  ScopedPlan scoped(std::move(plan));

  net::FrameReader reader(1 << 16);
  char buf[4096];
  int reads = 0;
  std::optional<std::string> got;
  for (;;) {
    ssize_t k = net::sys::read(fds[0], buf, sizeof buf);
    if (k <= 0) break;
    ++reads;
    EXPECT_LE(k, 3);
    ASSERT_TRUE(reader.feed(buf, static_cast<size_t>(k)));
    if ((got = reader.next())) break;
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, payload);
  EXPECT_GE(reads, 100);  // genuinely fragmented
  ::close(fds[0]);
}

TEST(SysShim, PartialWritesDeliverTheWholeFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string frame = net::encode_frame(std::string(200, 'w'));

  FaultPlan plan(1);
  plan.add({"net/write", {Kind::kShortIo, 0, 7, 0}, 0, 1, 1'000'000});
  ScopedPlan scoped(std::move(plan));

  // The standard send loop every call site uses: offset + retry.
  size_t off = 0;
  int writes = 0;
  while (off < frame.size()) {
    ssize_t k =
        net::sys::send_nosig(fds[0], frame.data() + off, frame.size() - off);
    ASSERT_GT(k, 0);
    EXPECT_LE(k, 7);
    off += static_cast<size_t>(k);
    ++writes;
  }
  EXPECT_GE(writes, 29);
  ::close(fds[0]);

  std::string got;
  char buf[4096];
  for (;;) {
    ssize_t k = ::read(fds[1], buf, sizeof buf);
    if (k <= 0) break;
    got.append(buf, static_cast<size_t>(k));
  }
  EXPECT_EQ(got, frame);
  ::close(fds[1]);
}

TEST(SysShim, CloseAlwaysReleasesTheDescriptor) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FaultPlan plan(1);
  plan.add({"net/close", {Kind::kErrno, EINTR, 0, 0}, 0, 1, 1});
  ScopedPlan scoped(std::move(plan));
  errno = 0;
  EXPECT_EQ(net::sys::close(fds[0]), -1);  // injected EINTR reported...
  EXPECT_EQ(errno, EINTR);
  EXPECT_EQ(::close(fds[0]), -1);  // ...but the fd is genuinely gone
  EXPECT_EQ(errno, EBADF);
  ::close(fds[1]);
}

TEST(CacheFault, DroppedInsertIsInvisibleToCorrectness) {
  ResultCache cache(8);
  CanonicalJob job;
  job.set.num_symbols = 4;
  job.set.add({0, 1});
  job.fingerprint = 0xABCD;
  CachedResult result;
  result.total_cubes = 7;

  FaultPlan plan(1);
  plan.add({"cache/insert", {Kind::kFail, 0, 0, 0}, 0, 1, 1});
  ScopedPlan scoped(std::move(plan));

  cache.insert(job, result);  // dropped
  EXPECT_FALSE(cache.lookup(job));
  EXPECT_EQ(cache.stats().insert_drops, 1);
  cache.insert(job, result);  // fires spent: lands
  auto hit = cache.lookup(job);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->total_cubes, 7);
}

TEST(PoolFault, InjectedThrowNeverOrphansASubmitFuture) {
  obs::MetricsRegistry reg;
  ThreadPool pool(2, &reg);
  FaultPlan plan(1);
  plan.add({"pool/task", {Kind::kThrow, 0, 0, 0}, 0, 1, 1});
  ScopedPlan scoped(std::move(plan));
  // The injection throws AFTER the body: the future must still resolve.
  auto fut = pool.submit([]() { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
  pool.wait_idle();
  EXPECT_EQ(reg.counter_value("pool/tasks_failed"), 1);
}

TEST(ServiceFault, ThrowingRestartFailsOnlyItsOwnJob) {
  ServiceOptions so;
  so.num_threads = 2;
  EncodingService service(so);

  ConstraintSet cs_a;
  cs_a.num_symbols = 6;
  cs_a.add({0, 1, 2});
  cs_a.add({3, 4});
  ConstraintSet cs_b;
  cs_b.num_symbols = 7;
  cs_b.add({1, 2, 3});
  cs_b.add({0, 6});

  FaultPlan plan(1);
  plan.add({"service/restart_task", {Kind::kThrow, 0, 0, 0}, 0, 1, 1});
  ScopedPlan scoped(std::move(plan));

  Job a;
  a.set = cs_a;
  a.restarts = 2;
  auto fut_a = service.submit(std::move(a));
  EXPECT_THROW(fut_a.get(), std::runtime_error);  // one restart was hit

  Job b;  // a different job, after the fires cap: unaffected
  b.set = cs_b;
  b.restarts = 2;
  JobResult rb = service.submit(std::move(b)).get();
  EXPECT_FALSE(rb.picola.encoding.codes.empty());

  Job a2;  // the failed job was not cached; a resubmit recomputes cleanly
  a2.set = cs_a;
  a2.restarts = 2;
  JobResult ra = service.submit(std::move(a2)).get();
  EXPECT_FALSE(ra.picola.encoding.codes.empty());
  EXPECT_FALSE(ra.cache_hit);
}

TEST(ServiceFault, InjectedAllocationFailureIsAnErrorNotACrash) {
  ServiceOptions so;
  so.num_threads = 2;
  EncodingService service(so);
  FaultPlan plan(1);
  plan.add({"service/job_alloc", {Kind::kThrow, 0, 0, 0}, 0, 1, 2});
  ScopedPlan scoped(std::move(plan));
  ConstraintSet cs;
  cs.num_symbols = 5;
  cs.add({0, 1});
  Job j;
  j.set = cs;
  j.restarts = 2;
  auto fut = service.submit(std::move(j));
  EXPECT_THROW(fut.get(), std::bad_alloc);
}

#endif  // PICOLA_FAULT_DISABLED

}  // namespace
}  // namespace picola::fault
