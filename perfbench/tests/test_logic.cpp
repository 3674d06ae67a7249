// Tests of the benchmark's own logic: the statistics rules, seeded
// request lists, fingerprint de-duplication and the reference check.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_set>

#include "metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(100), 90), 90);
  EXPECT_EQ(percentile(one_to(200), 90), 180);
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(percentile_supported(90, 100));
  EXPECT_FALSE(percentile_supported(90, 99));
  EXPECT_FALSE(percentile(one_to(99), 90).has_value());
  EXPECT_TRUE(percentile(one_to(20), 50).has_value());
  EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Percentile, FailedRequestsCountAsInfinity) {
  std::vector<double> v = one_to(100);
  for (int i = 0; i < 10; ++i) v[static_cast<size_t>(i)] = kInf;
  EXPECT_EQ(percentile(v, 90), 90);  // the ten largest were replaced
  v[10] = kInf;
  EXPECT_TRUE(std::isinf(*percentile(v, 90)));
}

TEST(PhaseDone, WaitsForTimeAndTheSampleGuard) {
  EXPECT_FALSE(phase_done(5, 1000, 10, 100, 70));   // time not up
  EXPECT_FALSE(phase_done(12, 99, 10, 100, 70));    // too few samples
  EXPECT_TRUE(phase_done(12, 100, 10, 100, 70));
  EXPECT_TRUE(phase_done(70, 3, 10, 100, 70));      // hard cap
}

void expect_same(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.problems.size(), b.problems.size());
  for (size_t i = 0; i < a.problems.size(); ++i) {
    EXPECT_EQ(a.problems[i].text, b.problems[i].text);
    EXPECT_EQ(a.problems[i].fingerprint, b.problems[i].fingerprint);
  }
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (size_t s = 0; s < a.streams.size(); ++s)
    EXPECT_EQ(a.streams[s].order, b.streams[s].order);
  EXPECT_EQ(a.warmup, b.warmup);
  EXPECT_EQ(a.quality_set, b.quality_set);
}

TEST(Workloads, SameSeedSameRequests) {
  for (const auto& name : workload_names()) {
    SCOPED_TRACE(name);
    expect_same(make_workload(name, 7), make_workload(name, 7));
  }
}

TEST(Workloads, OtherSeedOtherRequests) {
  for (const std::string name : {"cold_con", "portfolio_fsm"}) {
    const Workload a = make_workload(name, 7);
    const Workload b = make_workload(name, 8);
    EXPECT_NE(a.problems[a.streams[0].order[0]].text,
              b.problems[b.streams[0].order[0]].text);
  }
}

TEST(Workloads, ColdConNeverRepeatsAProblem) {
  // Every problem, warm-up included, has its own canonical fingerprint,
  // and the measured list sends each problem once: hit share 0.
  const Workload w = make_workload("cold_con", kDefaultSeed);
  std::unordered_set<uint64_t> fps;
  for (const Problem& p : w.problems) EXPECT_TRUE(fps.insert(p.fingerprint).second);
  ASSERT_EQ(w.streams.size(), 1u);
  EXPECT_FALSE(w.streams[0].cycle);
  std::unordered_set<size_t> sent(w.warmup.begin(), w.warmup.end());
  for (size_t i : w.streams[0].order) EXPECT_TRUE(sent.insert(i).second);
  EXPECT_GE(w.streams[0].order.size(), w.min_requests);
}

TEST(Workloads, DuplicateFingerprintIsDropped) {
  std::vector<Problem> problems;
  std::unordered_set<uint64_t> seen;
  Problem p;
  p.text = ".n 4\n0 1\n2 3\n.e\n";
  resolve(&p);
  Problem same_problem_reordered;
  same_problem_reordered.text = ".n 4\n2 3\n0 1\n.e\n";
  resolve(&same_problem_reordered);
  EXPECT_TRUE(add_distinct(&problems, &seen, p).has_value());
  EXPECT_FALSE(add_distinct(&problems, &seen, same_problem_reordered));
  EXPECT_EQ(problems.size(), 1u);
}

TEST(Workloads, RelabelPermutesSymbols) {
  picola::ConstraintSet set;
  set.num_symbols = 4;
  set.add({0, 1});
  const picola::ConstraintSet r = relabel(set, {3, 2, 1, 0});
  ASSERT_EQ(r.size(), 1);
  EXPECT_EQ(r.constraints[0].members, (std::vector<int>{2, 3}));
}

// A two-problem workload whose reference is computed in-process.
struct Fixture {
  Workload w;
  Reference ref;
  Pass pass;
  Fixture() {
    for (const char* text : {".n 5\n0 1\n1 2 3\n.e\n", ".n 6\n0 5\n2 3 4\n.e\n"}) {
      Problem p;
      p.text = text;
      resolve(&p);
      w.problems.push_back(p);
    }
    w.quality_set = {0, 1};
    compute_reference(w, {0, 1}, 1, &ref);
    for (int i = 0; i < 100; ++i) {
      Reply r;
      r.problem = static_cast<size_t>(i % 2);
      r.ok = true;
      r.latency_ms = 1 + i;
      r.enc = ref[w.problems[r.problem].fingerprint].enc;
      r.cubes = ref[w.problems[r.problem].fingerprint].cubes;
      pass.measured.push_back(r);
    }
    pass.elapsed_s = 1;
    pass.setup_s = {0.1};
  }
};

TEST(ReferenceCheck, CorrectRepliesPass) {
  Fixture f;
  mark_good(f.w, f.ref, &f.pass.measured);
  const EndToEnd e = end_to_end(f.w, f.pass, f.ref, false);
  EXPECT_EQ(e.failed, 0u);
  EXPECT_EQ(value_of(e.metrics, "ok_share"), 1.0);
  EXPECT_EQ(value_of(e.metrics, "cubes_total"),
            f.ref[f.w.problems[0].fingerprint].cubes +
                f.ref[f.w.problems[1].fingerprint].cubes);
  EXPECT_TRUE(e.faults.empty());
}

TEST(ReferenceCheck, WrongExpectedEntryShowsInFailedShare) {
  Fixture f;
  const long served = f.ref[f.w.problems[0].fingerprint].cubes +
                      f.ref[f.w.problems[1].fingerprint].cubes;
  f.ref[f.w.problems[1].fingerprint].cubes += 1;  // deliberately wrong
  mark_good(f.w, f.ref, &f.pass.measured);
  const EndToEnd e = end_to_end(f.w, f.pass, f.ref, false);
  EXPECT_EQ(e.failed, 50u);
  EXPECT_EQ(value_of(e.metrics, "ok_share"), 0.5);
  // Half the requests failed, so the p90 is a failure's latency.
  EXPECT_EQ(value_of(e.metrics, "latency_p90_ms"), kFailedLatencyMs);
  // cubes_total follows what was served, not the expectation.
  EXPECT_EQ(value_of(e.metrics, "cubes_total"), served);
}

TEST(ReferenceCheck, MissingEntryNeverMatches) {
  EXPECT_FALSE(reply_matches({}, 42, 1, 1));
}

}  // namespace
}  // namespace perfbench
