// The totalizer validated against brute-force enumeration: its outputs
// must count the true inputs, and one assumption must cap the count.

#include <gtest/gtest.h>

#include "sat/cnf.h"
#include "sat/dimacs.h"
#include "sat/solver.h"

namespace picola::sat {
namespace {

/// Solvability of `base` with the first n variables pinned to the bits of
/// `assignment`.
bool solvable_with(const Cnf& base, int n, unsigned assignment) {
  Cnf work = base;
  for (int i = 0; i < n; ++i)
    work.add_clause({(assignment >> i) & 1u ? i + 1 : -(i + 1)});
  Solver solver(work);
  return solver.solve() == SolveStatus::kSat;
}

TEST(Cnf, ValidateCatchesMalformedClauses) {
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.add_clause({1, -2});
  EXPECT_EQ(cnf.validate(), "");
  cnf.add_clause({});
  EXPECT_NE(cnf.validate(), "");
  cnf.clauses.pop_back();
  cnf.add_clause({3});
  EXPECT_NE(cnf.validate(), "");
}

TEST(Cnf, TotalizerForcesOutputsUpToTheTrueCount) {
  // Counting direction only: o[j] must be forced whenever >= j+1 inputs
  // are true, and nothing may force any o[j] on its own (the formula
  // with inputs pinned is always satisfiable, even with all outputs
  // negated above the count).
  for (int n = 1; n <= 6; ++n) {
    Cnf cnf;
    std::vector<int> lits;
    for (int i = 0; i < n; ++i) lits.push_back(cnf.new_var());
    std::vector<int> out = add_totalizer(cnf, lits);
    ASSERT_EQ(out.size(), static_cast<size_t>(n));
    ASSERT_EQ(cnf.validate(), "");
    for (unsigned a = 0; a < (1u << n); ++a) {
      int trues = __builtin_popcount(a);
      Cnf work = cnf;
      for (int i = 0; i < n; ++i)
        work.add_clause({(a >> i) & 1u ? lits[size_t(i)] : -lits[size_t(i)]});
      // Negating every output above the count must stay satisfiable...
      for (int j = trues; j < n; ++j) work.add_clause({-out[size_t(j)]});
      Solver solver(work);
      ASSERT_EQ(solver.solve(), SolveStatus::kSat)
          << "n=" << n << " assignment=" << a;
      // ...and every output below it must come out forced true.
      for (int j = 0; j < trues; ++j)
        EXPECT_TRUE(solver.model_value(out[size_t(j)]))
            << "n=" << n << " assignment=" << a << " output " << j;
    }
  }
}

TEST(Cnf, TotalizerAssumptionCapsTheCount) {
  // The incremental-sweep contract: one totalizer, every bound.  For
  // each cap c, adding the single unit -o[c] must make the formula
  // satisfiable exactly for the assignments with <= c true inputs.
  constexpr int kN = 5;
  Cnf cnf;
  std::vector<int> lits;
  for (int i = 0; i < kN; ++i) lits.push_back(cnf.new_var());
  std::vector<int> out = add_totalizer(cnf, lits);
  for (int cap = 0; cap < kN; ++cap) {
    Cnf bounded = cnf;
    bounded.add_clause({-out[size_t(cap)]});
    for (unsigned a = 0; a < (1u << kN); ++a) {
      int trues = __builtin_popcount(a);
      EXPECT_EQ(solvable_with(bounded, kN, a), trues <= cap)
          << "cap=" << cap << " assignment=" << a;
    }
  }
}

TEST(Dimacs, RoundTripPreservesFormula) {
  Cnf cnf;
  int a = cnf.new_var(), b = cnf.new_var(), c = cnf.new_var();
  cnf.add_clause({a, -b});
  cnf.add_clause({b, c});
  cnf.add_clause({-a, -c});
  std::string text = write_dimacs(cnf, {"example", "two\nlines"});
  DimacsParseResult parsed = parse_dimacs(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.cnf.num_vars, cnf.num_vars);
  EXPECT_EQ(parsed.cnf.clauses, cnf.clauses);
}

TEST(Dimacs, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_dimacs("").ok());
  EXPECT_FALSE(parse_dimacs("1 2 0\n").ok());                  // before header
  EXPECT_FALSE(parse_dimacs("p cnf 2 1\n3 0\n").ok());         // out of range
  EXPECT_FALSE(parse_dimacs("p cnf 2 1\n1 x 0\n").ok());       // bad token
  EXPECT_FALSE(parse_dimacs("p cnf 2 1\n1 2\n").ok());         // unterminated
  EXPECT_FALSE(parse_dimacs("p cnf 2 2\n1 0\n").ok());         // count mismatch
  EXPECT_FALSE(parse_dimacs("p cnf 2 0\np cnf 2 0\n").ok());   // dup header
  EXPECT_TRUE(parse_dimacs("c hi\np cnf 2 1\n1 -2 0\n").ok());
}

}  // namespace
}  // namespace picola::sat
