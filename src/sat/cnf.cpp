#include "sat/cnf.h"

#include <cstdlib>

namespace picola::sat {

std::string Cnf::validate() const {
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (clauses[i].empty())
      return "clause " + std::to_string(i) + " is empty";
    for (int lit : clauses[i]) {
      if (lit == 0 || std::abs(lit) > num_vars)
        return "clause " + std::to_string(i) + " has out-of-range literal " +
               std::to_string(lit);
    }
  }
  return "";
}

namespace {

/// Merge two sorted-unary counters: out[k] fires when a and b together
/// hold at least k+1 true inputs.  a_i ∧ b_j → out_{i+j} (i or j = 0
/// meaning the empty prefix, which is vacuously true).
std::vector<int> totalizer_merge(Cnf& cnf, const std::vector<int>& a,
                                 const std::vector<int>& b) {
  std::vector<int> out(a.size() + b.size());
  for (int& v : out) v = cnf.new_var();
  for (size_t i = 0; i <= a.size(); ++i) {
    for (size_t j = 0; j <= b.size(); ++j) {
      if (i + j == 0) continue;
      std::vector<int> clause;
      if (i > 0) clause.push_back(-a[i - 1]);
      if (j > 0) clause.push_back(-b[j - 1]);
      clause.push_back(out[i + j - 1]);
      cnf.add_clause(std::move(clause));
    }
  }
  return out;
}

std::vector<int> totalizer_build(Cnf& cnf, const std::vector<int>& lits,
                                 size_t lo, size_t hi) {
  if (hi - lo == 1) return {lits[lo]};
  size_t mid = lo + (hi - lo) / 2;
  return totalizer_merge(cnf, totalizer_build(cnf, lits, lo, mid),
                         totalizer_build(cnf, lits, mid, hi));
}

}  // namespace

std::vector<int> add_totalizer(Cnf& cnf, const std::vector<int>& lits) {
  if (lits.empty()) return {};
  return totalizer_build(cnf, lits, 0, lits.size());
}

}  // namespace picola::sat
