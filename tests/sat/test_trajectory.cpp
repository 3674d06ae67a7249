// Pins the CDCL solver's search trajectory.  Every decision, propagation,
// conflict, learned clause, restart and database reduction shows up in
// SolverStats, and every model in the codes, so a change to the solver's
// engine that is meant to leave results bit-identical (branching heap,
// watch lists, clause database) must keep these hashes.  A change that
// is meant to move the search updates the constants in the same commit
// and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "check/instance_gen.h"
#include "constraints/derive.h"
#include "kiss/benchmarks.h"
#include "sat/encode.h"

namespace picola::sat {
namespace {

/// FNV-1a over 64-bit words.
struct TrajectoryHash {
  uint64_t h = 0xCBF29CE484222325ULL;

  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void mix(const SolverStats& s) {
    for (long v : {s.decisions, s.propagations, s.conflicts, s.restarts,
                   s.learned_clauses, s.learned_literals, s.db_reductions})
      mix(static_cast<uint64_t>(v));
  }
  void mix(const SatExactResult& r) {
    mix(static_cast<uint64_t>(r.feasible) | uint64_t{r.proven} << 1);
    mix(static_cast<uint64_t>(r.satisfied));
    mix(static_cast<uint64_t>(r.solver_calls));
    mix(r.stats);
    mix(static_cast<uint64_t>(r.encoding.num_bits));
    for (uint32_t c : r.encoding.codes) mix(c);
  }
};

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(SolverTrajectory, TableOneSlice) {
  // Table I sets whose sat slot finishes within a few hundred
  // milliseconds at portfolio_bench's 2,000-conflict budget.  bbara and ex7 refute their
  // top targets; kirkman exhausts the budget and ends unproven.
  TrajectoryHash h;
  long conflicts = 0;
  for (const char* name :
       {"bbara", "bbsse", "cse", "dk14", "ex3", "ex5", "ex7", "kirkman",
        "lion9", "mark1", "opus", "train11", "s8", "ex1", "ex2", "s386"}) {
    ConstraintSet cs = derive_face_constraints(make_benchmark(name)).set;
    SatExactOptions opt;
    opt.max_conflicts = 2'000;
    SatExactResult r = sat_exact_encode(cs, opt);
    conflicts += r.stats.conflicts;
    h.mix(r);
  }
  EXPECT_EQ(conflicts, 9'274);
  EXPECT_EQ(hex(h.h), "0x1792410b0e74e9e6");
}

TEST(SolverTrajectory, GeneratorStream) {
  // One fixed generator stream at the default options.
  check::GeneratorOptions g;
  g.max_symbols = 12;
  check::InstanceGenerator gen(20261018, g);
  TrajectoryHash h;
  long conflicts = 0;
  for (int i = 0; i < 90; ++i) {
    check::InstanceGenerator::Instance inst = gen.next();
    SatExactOptions opt;
    opt.num_bits = inst.num_bits;
    opt.max_conflicts = 2'000;
    SatExactResult r = sat_exact_encode(inst.set, opt);
    conflicts += r.stats.conflicts;
    h.mix(r);
  }
  EXPECT_EQ(conflicts, 15'019);
  EXPECT_EQ(hex(h.h), "0xd5931ec26add3faf");
}

TEST(SolverTrajectory, PastTheFirstActivityRescale) {
  // Activities are scaled by 1e-100 once one passes 1e100.  With a
  // VSIDS decay of 0.95 the bump grows by 1/0.95 per conflict, so the
  // first rescale falls between about 4,430 and 4,490 conflicts; one
  // solver on keyb's all-constraints face CNF runs past it to its budget.
  ConstraintSet cs = derive_face_constraints(make_benchmark("keyb")).set;
  FaceCnf fc = build_face_cnf(cs, Encoding::min_bits(cs.num_symbols));
  SolverOptions so;
  so.max_conflicts = 5'000;
  Solver solver(fc.cnf, so);
  SolveStatus st = solver.solve();
  ASSERT_GE(solver.stats().conflicts, 4'500);
  TrajectoryHash h;
  h.mix(static_cast<uint64_t>(st));
  h.mix(solver.stats());
  EXPECT_EQ(hex(h.h), "0x97c392a90452a644");
}

}  // namespace
}  // namespace picola::sat
