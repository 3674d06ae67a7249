// EncodingService: concurrent restart fan-out must be bit-identical to the
// sequential picola_encode_best, cache/in-flight dedup, stats counters.

#include "service/service.h"

#include <gtest/gtest.h>

#include <fstream>

#include "constraints/constraint_io.h"
#include "constraints/derive.h"
#include "encoders/restart.h"
#include "eval/constraint_eval.h"
#include "kiss/benchmarks.h"
#include "portfolio/portfolio.h"

namespace picola {
namespace {

ConstraintSet paper_set() {
  ConstraintSet cs;
  cs.num_symbols = 15;
  cs.add({1, 5, 7, 13});
  cs.add({0, 1});
  cs.add({8, 13});
  cs.add({5, 6, 7, 8, 13});
  return cs;
}

ConstraintSet crowded_set() {
  ConstraintSet cs;
  cs.num_symbols = 12;
  cs.add({0, 1, 2, 3});
  cs.add({2, 3, 4, 5});
  cs.add({4, 5, 6, 7});
  cs.add({6, 7, 8, 9});
  cs.add({8, 9, 10, 11});
  cs.add({1, 4, 7, 10});
  cs.add({0, 11});
  return cs;
}

/// examples/data/overlap.con: tied, 5 distinct encodings over 8 restarts.
ConstraintSet overlap_set() {
  std::ifstream in(std::string(PICOLA_EXAMPLES_DIR) + "/overlap.con");
  ConstraintParseResult parsed = parse_constraints(in);
  EXPECT_TRUE(parsed.error.empty()) << parsed.error;
  return parsed.set;
}

/// The sequential answer to a service job: picola_encode_best on the
/// canonical set the service runs.
PicolaResult sequential_best(const ConstraintSet& cs, int restarts) {
  Job job;
  job.set = cs;
  job.restarts = restarts;
  CanonicalJob canon = canonicalize(job);
  return picola_encode_best(canon.set, restarts, canon.options);
}

/// A service/* counter, read from the service's registry.
uint64_t counter(const EncodingService& service, const std::string& name) {
  return service.metrics().counter_value("service/" + name);
}

TEST(RestartPlanTest, SeedsDeriveFromBasePlusIndex) {
  EXPECT_EQ(restart_seed(0, 0), 0u);
  EXPECT_EQ(restart_seed(0, 3), 3u);
  EXPECT_EQ(restart_seed(100, 0), 100u);
  EXPECT_EQ(restart_seed(100, 3), 103u);
  PicolaOptions base;
  base.tie_break_seed = 42;
  EXPECT_EQ(picola_restart_options(base, 0).tie_break_seed, 42u);
  EXPECT_EQ(picola_restart_options(base, 5).tie_break_seed, 47u);
}

TEST(RestartPlanTest, WinnerReductionIsOrderIndependent) {
  // (cost, restart) pairs fed in any order must pick (4, restart 1).
  std::vector<std::pair<long, int>> runs = {{5, 0}, {4, 1}, {4, 2}, {6, 3}};
  for (int rot = 0; rot < 4; ++rot) {
    RestartWinner w;
    for (int i = 0; i < 4; ++i)
      w.offer(runs[static_cast<size_t>((i + rot) % 4)].first,
              runs[static_cast<size_t>((i + rot) % 4)].second);
    EXPECT_EQ(w.cost, 4);
    EXPECT_EQ(w.restart, 1);
  }
}

TEST(EncodingServiceTest, ParallelRestartsMatchSequentialBest) {
  // The satellite requirement: the concurrent fan-out and the sequential
  // multi-start loop must pick the same winner, bit for bit.
  const int kRestarts = 6;
  for (const ConstraintSet& cs : {paper_set(), crowded_set()}) {
    PicolaResult seq = picola_encode_best(cs, kRestarts);
    long seq_cost = evaluate_constraints(cs, seq.encoding).total_cubes;

    ServiceOptions so;
    so.num_threads = 4;
    EncodingService service(so);
    Job job;
    job.set = cs;
    job.restarts = kRestarts;
    JobResult r = service.submit(std::move(job)).get();

    EXPECT_EQ(r.picola.encoding.codes, seq.encoding.codes);
    EXPECT_EQ(r.total_cubes, seq_cost);
    EXPECT_FALSE(r.cache_hit);
  }
}

TEST(EncodingServiceTest, ParallelMatchesSequentialWithNonzeroBaseSeed) {
  ConstraintSet cs = crowded_set();
  PicolaOptions opt;
  opt.tie_break_seed = 1234;
  PicolaResult seq = picola_encode_best(cs, 5, opt);

  ServiceOptions so;
  so.num_threads = 3;
  EncodingService service(so);
  Job job;
  job.set = cs;
  job.options = opt;
  job.restarts = 5;
  JobResult r = service.submit(std::move(job)).get();
  EXPECT_EQ(r.picola.encoding.codes, seq.encoding.codes);
}

TEST(EncodingServiceTest, ResubmissionHitsCache) {
  EncodingService service(ServiceOptions{});
  Job job;
  job.set = paper_set();
  job.restarts = 3;
  JobResult first = service.submit(job).get();
  EXPECT_FALSE(first.cache_hit);
  JobResult second = service.submit(job).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.picola.encoding.codes, first.picola.encoding.codes);
  EXPECT_EQ(second.total_cubes, first.total_cubes);
  EXPECT_EQ(counter(service, "jobs_submitted"), 2u);
  EXPECT_EQ(counter(service, "jobs_completed"), 2u);
  EXPECT_EQ(counter(service, "cache_hits"), 1u);
  EXPECT_EQ(counter(service, "cache_misses"), 1u);
  EXPECT_EQ(counter(service, "restart_tasks"), 3u);
}

TEST(EncodingServiceTest, PortfolioPostsRestartsPlusOneSatSlot) {
  // The portfolio plan is the picola restarts and one sat slot; the
  // annealer's restarts are posted only for a job that selects it.
  EncodingService service(ServiceOptions{});
  Job port;
  port.set = paper_set();
  port.restarts = 3;
  port.portfolio.backend = portfolio::BackendKind::kPortfolio;
  service.submit(std::move(port)).get();
  EXPECT_EQ(counter(service, "restart_tasks"), 4u);

  Job anneal;
  anneal.set = paper_set();
  anneal.restarts = 3;
  anneal.portfolio.backend = portfolio::BackendKind::kAnneal;
  JobResult r = service.submit(std::move(anneal)).get();
  EXPECT_EQ(r.backend, portfolio::BackendKind::kAnneal);
  EXPECT_EQ(counter(service, "restart_tasks"), 4u + 3u);
}

TEST(EncodingServiceTest, TieFreeRestartZeroAnswersAlone) {
  // tbk's restart 0 meets no tie, so restarts 1..3 are never posted;
  // overlap.con ties at once and posts all four.  Both answers are the
  // sequential ones.
  ConstraintSet tbk = derive_face_constraints(make_benchmark("tbk")).set;
  struct Case {
    ConstraintSet set;
    uint64_t tasks, skipped;
  };
  for (const Case& c : {Case{tbk, 1, 3}, Case{overlap_set(), 4, 0}}) {
    ServiceOptions so;
    so.num_threads = 2;
    EncodingService service(so);
    Job job;
    job.set = c.set;
    job.restarts = 4;
    JobResult r = service.submit(std::move(job)).get();
    PicolaResult seq = sequential_best(c.set, 4);
    EXPECT_EQ(r.picola.encoding.codes, seq.encoding.codes);
    EXPECT_EQ(r.total_cubes,
              evaluate_constraints(c.set, seq.encoding).total_cubes);
    EXPECT_EQ(counter(service, "restart_tasks"), c.tasks);
    EXPECT_EQ(counter(service, "restarts_skipped"), c.skipped);
  }
}

TEST(EncodingServiceTest, RestartsPostedPastTheQueueBound) {
  // One worker: restart 0 posts restarts 1..3 from the worker itself.
  // Were those posts to wait on the worker that makes them, the job would
  // never finish (ctest's timeout catches that hang).
  ServiceOptions so;
  so.num_threads = 1;
  EncodingService service(so);
  Job job;
  job.set = overlap_set();
  job.restarts = 4;
  JobResult r = service.submit(std::move(job)).get();
  EXPECT_EQ(r.picola.encoding.codes,
            sequential_best(overlap_set(), 4).encoding.codes);
  EXPECT_EQ(counter(service, "restart_tasks"), 4u);
}

TEST(EncodingServiceTest, PermutedSubmissionHitsCache) {
  EncodingService service(ServiceOptions{});
  Job a;
  a.set.num_symbols = 10;
  a.set.add({0, 1, 2});
  a.set.add({4, 5});
  Job b;
  b.set.num_symbols = 10;
  b.set.add({5, 4});
  b.set.add({2, 0, 1});
  JobResult ra = service.submit(std::move(a)).get();
  JobResult rb = service.submit(std::move(b)).get();
  EXPECT_TRUE(rb.cache_hit);
  EXPECT_EQ(rb.picola.encoding.codes, ra.picola.encoding.codes);
}

TEST(EncodingServiceTest, DuplicateInFlightJobsShareOneComputation) {
  ServiceOptions so;
  so.num_threads = 2;
  EncodingService service(so);
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    Job j;
    j.set = crowded_set();
    j.restarts = 4;
    jobs.push_back(std::move(j));
  }
  auto futures = service.submit_batch(std::move(jobs));
  ASSERT_EQ(futures.size(), 6u);
  std::vector<uint32_t> codes = futures[0].get().picola.encoding.codes;
  for (auto& f : futures) EXPECT_EQ(f.get().picola.encoding.codes, codes);
  EXPECT_EQ(counter(service, "jobs_submitted"), 6u);
  // At most one computation: everything else joined the in-flight job or
  // hit the completed-result cache, depending on scheduling.
  EXPECT_EQ(counter(service, "cache_misses"), 1u);
  EXPECT_EQ(counter(service, "cache_hits") + counter(service, "inflight_joins"),
            5u);
  EXPECT_EQ(counter(service, "restart_tasks"), 4u);
}

TEST(EncodingServiceTest, BatchOfDistinctJobsCompletesAll) {
  ServiceOptions so;
  so.num_threads = 4;
  EncodingService service(so);
  std::vector<Job> jobs;
  for (int n = 4; n < 12; ++n) {
    Job j;
    j.set.num_symbols = n;
    j.set.add({0, 1, 2});
    j.set.add({1, n - 1});
    j.restarts = 2;
    jobs.push_back(std::move(j));
  }
  auto futures = service.submit_batch(std::move(jobs));
  service.wait_all();
  for (size_t i = 0; i < futures.size(); ++i) {
    JobResult r = futures[i].get();
    EXPECT_EQ(r.picola.encoding.num_symbols, static_cast<int>(i) + 4);
    EXPECT_TRUE(r.picola.encoding.validate().empty());
  }
  EXPECT_EQ(counter(service, "jobs_completed"), 8u);
  EXPECT_EQ(counter(service, "cache_misses"), 8u);
  obs::Histogram::Snapshot wall;
  for (const auto& [name, snap] : service.metrics().histogram_snapshots())
    if (name == "service/job") wall = snap;
  EXPECT_EQ(wall.count, 8u);
  EXPECT_GE(wall.sum, wall.max);
}

TEST(EncodingServiceTest, StatsCountCacheEvictions) {
  ServiceOptions so;
  so.num_threads = 1;
  so.cache_capacity = 1;
  so.cache_shards = 1;
  EncodingService service(so);
  Job a;
  a.set = paper_set();
  a.restarts = 2;
  Job b;
  b.set = crowded_set();
  b.restarts = 2;
  service.submit(a).get();   // miss, fills the single slot
  service.submit(b).get();   // miss, evicts a
  JobResult r = service.submit(a).get();  // miss again: a was evicted
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(counter(service, "cache_misses"), 3u);
  EXPECT_EQ(counter(service, "cache_hits"), 0u);
  EXPECT_EQ(counter(service, "inflight_joins"), 0u);
  EXPECT_EQ(service.cache().stats().evictions, 2);
  EXPECT_NE(service.stats_json().find("\"cache_evictions\":2,"),
            std::string::npos);
  EXPECT_NE(service.stats_line().find(" / 2 evicted, "), std::string::npos);
}

TEST(EncodingServiceTest, SingleThreadServiceIsStillCorrect) {
  ServiceOptions so;
  so.num_threads = 1;
  EncodingService service(so);
  Job job;
  job.set = paper_set();
  job.restarts = 4;
  JobResult r = service.submit(std::move(job)).get();
  PicolaResult seq = picola_encode_best(paper_set(), 4);
  EXPECT_EQ(r.picola.encoding.codes, seq.encoding.codes);
}

TEST(EncodingServiceTest, BackendSelectionSeparatesCacheEntries) {
  // The same constraint set under different backends must be distinct
  // jobs: no false cache hits, and each result names its backend.
  EncodingService service;
  Job picola_job;
  picola_job.set = paper_set();
  picola_job.restarts = 2;
  JobResult r1 = service.submit(std::move(picola_job)).get();
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.backend, portfolio::BackendKind::kPicola);

  Job anneal_job;
  anneal_job.set = paper_set();
  anneal_job.restarts = 2;
  anneal_job.portfolio.backend = portfolio::BackendKind::kAnneal;
  JobResult r2 = service.submit(std::move(anneal_job)).get();
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(r2.backend, portfolio::BackendKind::kAnneal);

  // Different sat knobs are different jobs too (they change results).
  Job sat_a;
  sat_a.set = paper_set();
  sat_a.portfolio.backend = portfolio::BackendKind::kSat;
  JobResult r3 = service.submit(std::move(sat_a)).get();
  EXPECT_FALSE(r3.cache_hit);
  Job sat_b;
  sat_b.set = paper_set();
  sat_b.portfolio.backend = portfolio::BackendKind::kSat;
  sat_b.portfolio.sat_max_conflicts = 1'000;
  JobResult r4 = service.submit(std::move(sat_b)).get();
  EXPECT_FALSE(r4.cache_hit);
}

TEST(EncodingServiceTest, CachedReplyReportsWinningBackend) {
  EncodingService service;
  auto make_job = [] {
    Job j;
    j.set = paper_set();
    j.portfolio.backend = portfolio::BackendKind::kSat;
    return j;
  };
  JobResult first = service.submit(make_job()).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.backend, portfolio::BackendKind::kSat);
  JobResult second = service.submit(make_job()).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.backend, portfolio::BackendKind::kSat);
  EXPECT_EQ(second.picola.encoding.codes, first.picola.encoding.codes);
}

TEST(EncodingServiceTest, PortfolioJobMatchesSequentialPortfolio) {
  // The concurrent fan-out of a portfolio plan must reduce to the same
  // winner as the sequential front-end, and never lose to picola alone.
  const int kRestarts = 3;
  for (const ConstraintSet& cs : {paper_set(), crowded_set()}) {
    portfolio::PortfolioOptions fopt;
    fopt.backend = portfolio::BackendKind::kPortfolio;
    // The service canonicalises (sorts/normalises) the constraint set
    // before running; the sat backend's model depends on constraint
    // order, so the sequential reference must use the same form.
    Job proto;
    proto.set = cs;
    proto.restarts = kRestarts;
    proto.portfolio = fopt;
    CanonicalJob canon = canonicalize(proto);
    portfolio::PortfolioResult seq =
        portfolio::portfolio_encode(canon.set, kRestarts, {}, fopt);

    ServiceOptions so;
    so.num_threads = 4;
    EncodingService service(so);
    Job job;
    job.set = cs;
    job.restarts = kRestarts;
    job.portfolio = fopt;
    JobResult r = service.submit(std::move(job)).get();
    EXPECT_EQ(r.picola.encoding.codes, seq.picola.encoding.codes);
    EXPECT_EQ(r.total_cubes, seq.total_cubes);
    EXPECT_EQ(r.backend, seq.backend);

    PicolaResult alone = picola_encode_best(cs, kRestarts);
    long alone_cost = evaluate_constraints(cs, alone.encoding).total_cubes;
    EXPECT_LE(r.total_cubes, alone_cost);
  }
}

}  // namespace
}  // namespace picola
