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

const char* card_encoding_name(CardEncoding e) {
  switch (e) {
    case CardEncoding::kPairwise: return "pairwise";
    case CardEncoding::kSequential: return "sequential";
    case CardEncoding::kCommander: return "commander";
  }
  return "?";
}

std::optional<CardEncoding> parse_card_encoding(std::string_view name) {
  if (name == "pairwise") return CardEncoding::kPairwise;
  if (name == "sequential") return CardEncoding::kSequential;
  if (name == "commander") return CardEncoding::kCommander;
  return std::nullopt;
}

namespace {

void amo_pairwise(Cnf& cnf, const std::vector<int>& lits) {
  for (size_t i = 0; i < lits.size(); ++i)
    for (size_t j = i + 1; j < lits.size(); ++j)
      cnf.add_clause({-lits[i], -lits[j]});
}

/// Sinz's sequential AMO: registers s_i = "some lit among the first i+1
/// is true"; only the implication direction is needed.
void amo_sequential(Cnf& cnf, const std::vector<int>& lits) {
  const size_t n = lits.size();
  if (n <= 1) return;
  std::vector<int> s(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) s[i] = cnf.new_var();
  cnf.add_clause({-lits[0], s[0]});
  for (size_t i = 1; i + 1 < n; ++i) {
    cnf.add_clause({-lits[i], s[i]});
    cnf.add_clause({-s[i - 1], s[i]});
    cnf.add_clause({-lits[i], -s[i - 1]});
  }
  cnf.add_clause({-lits[n - 1], -s[n - 2]});
}

/// Commander AMO over groups of 3: pairwise within each group, a
/// commander variable implied by every group member, and AMO recursively
/// over the commanders.
void amo_commander(Cnf& cnf, std::vector<int> lits) {
  constexpr size_t kGroup = 3;
  while (lits.size() > kGroup) {
    std::vector<int> commanders;
    for (size_t g = 0; g < lits.size(); g += kGroup) {
      size_t end = std::min(g + kGroup, lits.size());
      for (size_t i = g; i < end; ++i)
        for (size_t j = i + 1; j < end; ++j)
          cnf.add_clause({-lits[i], -lits[j]});
      int c = cnf.new_var();
      for (size_t i = g; i < end; ++i) cnf.add_clause({-lits[i], c});
      commanders.push_back(c);
    }
    lits = std::move(commanders);
  }
  amo_pairwise(cnf, lits);
}

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

void add_at_most_one(Cnf& cnf, const std::vector<int>& lits, CardEncoding e) {
  if (lits.size() <= 1) return;
  switch (e) {
    case CardEncoding::kPairwise: amo_pairwise(cnf, lits); return;
    case CardEncoding::kSequential: amo_sequential(cnf, lits); return;
    case CardEncoding::kCommander: amo_commander(cnf, lits); return;
  }
}

}  // namespace picola::sat
