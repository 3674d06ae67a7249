// Tie-free restarts (docs/ALGORITHM.md): a run reports tie_free only when
// no flip met a tie, and then every restart seed returns its codes, so
// picola_encode_best may stop after restart 0.  Each instance is checked
// against its explicit restarts: picola_encode with
// picola_restart_options, reduced with RestartWinner.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "check/instance_gen.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "encoders/restart.h"
#include "eval/constraint_eval.h"
#include "kiss/benchmarks.h"
#include "service/job.h"

namespace picola {
namespace {

/// Checks one instance at `restarts` restarts; returns whether restart 0
/// was tie-free.
bool check_restarts(const ConstraintSet& cs, int restarts,
                    const PicolaOptions& opt) {
  std::vector<PicolaResult> runs;
  RestartWinner winner;
  for (int r = 0; r < restarts; ++r) {
    runs.push_back(picola_encode(cs, picola_restart_options(opt, r)));
    winner.offer(evaluate_constraints(cs, runs.back().encoding).total_cubes,
                 r);
  }
  const bool tie_free = runs[0].stats.tie_free;
  if (tie_free) {
    for (const PicolaResult& run : runs)
      EXPECT_EQ(run.encoding.codes, runs[0].encoding.codes)
          << "a tie-free restart 0 differs from another restart";
  }

  const PicolaResult best = picola_encode_best(cs, restarts, opt);
  const PicolaResult& want = runs[static_cast<size_t>(winner.restart)];
  EXPECT_EQ(best.encoding.codes, want.encoding.codes);
  EXPECT_EQ(best.stats.satisfied_constraints,
            want.stats.satisfied_constraints);
  return tie_free;
}

ConstraintSet table_one_set(const std::string& name) {
  return derive_face_constraints(make_benchmark(name)).set;
}

/// The set a service job holds: sorted, merged groups.
ConstraintSet canonical(const ConstraintSet& cs) {
  Job job;
  job.set = cs;
  return canonicalize(job).set;
}

ConstraintSet relabel(const ConstraintSet& cs, uint64_t seed) {
  std::vector<int> perm(static_cast<size_t>(cs.num_symbols));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(seed));
  ConstraintSet out;
  out.num_symbols = cs.num_symbols;
  for (const FaceConstraint& c : cs.constraints) {
    std::vector<int> members;
    for (int s : c.members) members.push_back(perm[static_cast<size_t>(s)]);
    out.add(members, c.weight);
  }
  return out;
}

TEST(TieFree, TableOneAtFourAndEightRestarts) {
  // tbk is the only tie-free Table I set; every other set ties within
  // its first few flips.
  for (const std::string& name : table1_benchmarks()) {
    ConstraintSet cs = table_one_set(name);
    for (int restarts : {4, 8})
      EXPECT_EQ(check_restarts(cs, restarts, {}), name == "tbk") << name;
  }
}

TEST(TieFree, GeneratorStreams) {
  // Tie-free runs are rare on generated sets and grow with the number of
  // constraints.  Random base seeds make restart 0 break ties at random
  // too, which checks its stopping step as well.
  int tie_free = 0;
  for (int max_constraints : {6, 40, 120}) {
    check::GeneratorOptions g;
    g.min_symbols = 8;
    g.max_symbols = 24;
    g.max_constraints = max_constraints;
    check::InstanceGenerator gen(20261019, g);
    for (int i = 0; i < 60; ++i) {
      check::InstanceGenerator::Instance inst = gen.next();
      PicolaOptions opt;
      opt.num_bits = inst.num_bits;
      opt.tie_break_seed = i % 2 == 0 ? 0 : uint64_t(i);
      tie_free += check_restarts(inst.set, 4, opt);
    }
  }
  EXPECT_GT(tie_free, 0);
}

TEST(TieFree, TbkAndItsRelabellings) {
  // cold_con's tbk requests: relabelled, then canonicalised.
  ConstraintSet tbk = table_one_set("tbk");
  EXPECT_TRUE(picola_encode(canonical(tbk)).stats.tie_free);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ConstraintSet cs = canonical(relabel(tbk, seed));
    EXPECT_TRUE(check_restarts(cs, 4, {})) << "relabelling " << seed;
  }
}

TEST(TieFree, HookFiresOnceAtTheFirstTie) {
  for (const char* name : {"tbk", "ex3", "keyb", "s8"}) {
    ConstraintSet cs = table_one_set(name);
    int calls = 0;
    PicolaOptions opt;
    opt.on_first_tie = [&calls]() { ++calls; };
    PicolaResult r = picola_encode(cs, opt);
    EXPECT_EQ(calls, r.stats.tie_free ? 0 : 1) << name;
    PicolaResult plain = picola_encode(cs);
    EXPECT_EQ(r.encoding.codes, plain.encoding.codes) << name;
  }
}

}  // namespace
}  // namespace picola
