#include "check/oracle.h"

#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "eval/constraint_eval.h"

namespace picola::check {

namespace {

/// Candidate count of the pinned enumeration, saturating at cap + 1.
long count_pinned_assignments(int cells, int symbols, long cap) {
  long total = 1;
  for (int i = 1; i < symbols; ++i) {
    total *= cells - i;
    if (total > cap || total <= 0) return cap + 1;
  }
  return total;
}

/// Bit k set when constraint k is satisfied by `e` (supercube of members
/// free of non-member codes).
uint64_t satisfied_mask(const ConstraintSet& cs, const Encoding& e) {
  uint64_t mask = 0;
  const uint32_t full = (uint32_t{1} << e.num_bits) - 1;
  for (int k = 0; k < cs.size(); ++k) {
    const FaceConstraint& c = cs.constraints[static_cast<size_t>(k)];
    uint32_t value = e.code(c.members[0]);
    uint32_t care = full;
    for (int m : c.members) care &= ~(value ^ e.code(m));
    bool ok = true;
    for (int j = 0; j < e.num_symbols && ok; ++j)
      if (!c.contains(j) && ((e.code(j) ^ value) & care) == 0) ok = false;
    if (ok) mask |= uint64_t{1} << k;
  }
  return mask;
}

}  // namespace

OracleResult oracle_solve(const ConstraintSet& cs, int nv,
                          const OracleOptions& opt) {
  if (std::string e = cs.validate(); !e.empty())
    throw std::invalid_argument("oracle_solve: " + e);
  if (cs.size() > 64)
    throw std::invalid_argument("oracle_solve: more than 64 constraints");
  const int n = cs.num_symbols;
  nv = Encoding::resolve_bits(n, nv, "oracle_solve");
  if (nv > 20) throw std::invalid_argument("oracle_solve: nv too large");
  const int cells = 1 << nv;
  if (count_pinned_assignments(cells, n, opt.max_candidates) >
      opt.max_candidates)
    throw std::invalid_argument("oracle_solve: search space too large");

  Encoding e;
  e.num_symbols = n;
  e.num_bits = nv;
  e.codes.assign(static_cast<size_t>(n), 0);

  OracleResult res;
  std::vector<bool> used(static_cast<size_t>(cells), false);
  e.codes[0] = 0;  // column complementation symmetry: pin symbol 0
  used[0] = true;

  auto evaluate = [&]() {
    const bool first = res.candidates++ == 0;
    uint64_t mask = satisfied_mask(cs, e);
    res.satisfiable_mask |= mask;
    int sat = std::popcount(mask);
    if (first || sat > res.max_satisfied) {
      res.max_satisfied = sat;
      res.best_satisfied_mask = mask;
      res.max_satisfied_encoding = e;
    }
    if (opt.min_cubes) {
      int cubes = evaluate_constraints(cs, e).total_cubes;
      if (first || cubes < res.min_total_cubes) {
        res.min_total_cubes = cubes;
        res.min_cubes_encoding = e;
      }
    }
  };

  auto rec = [&](auto&& self, int symbol) -> void {
    if (symbol == n) {
      evaluate();
      return;
    }
    for (int code = 0; code < cells; ++code) {
      if (used[static_cast<size_t>(code)]) continue;
      used[static_cast<size_t>(code)] = true;
      e.codes[static_cast<size_t>(symbol)] = static_cast<uint32_t>(code);
      self(self, symbol + 1);
      used[static_cast<size_t>(code)] = false;
    }
  };
  rec(rec, 1);
  return res;
}

bool satisfiable_with_prefix(const FaceConstraint& c, int num_symbols, int nv,
                             const std::vector<uint32_t>& prefixes,
                             int fixed_cols) {
  if (nv < 1 || nv > 20 || fixed_cols < 0 || fixed_cols > nv)
    throw std::invalid_argument("satisfiable_with_prefix: bad dimensions");
  if (static_cast<int>(prefixes.size()) != num_symbols)
    throw std::invalid_argument("satisfiable_with_prefix: prefix count");
  if (c.members.empty() || c.members.front() < 0 ||
      c.members.back() >= num_symbols)
    throw std::invalid_argument("satisfiable_with_prefix: bad members");

  const uint32_t cells = uint32_t{1} << nv;
  const uint32_t prefix_mask = (uint32_t{1} << fixed_cols) - 1;
  const uint32_t nsuffix = uint32_t{1} << (nv - fixed_cols);
  const int m = c.size();
  if (m > static_cast<int>(cells)) return false;

  // Non-members grouped by (fixed) prefix: codes extending different
  // prefixes are disjoint, so after the members are placed, distinct
  // out-of-face codes for the non-members exist iff every prefix class
  // has at least as many free out-of-face cells as it has non-members.
  std::unordered_map<uint32_t, int> nonmembers_of;
  for (int j = 0; j < num_symbols; ++j)
    if (!c.contains(j)) ++nonmembers_of[prefixes[static_cast<size_t>(j)] &
                                        prefix_mask];

  auto nonmembers_fit = [&](uint32_t care, uint32_t value) {
    for (const auto& [prefix, count] : nonmembers_of) {
      long avail = 0;
      for (uint32_t s = 0; s < nsuffix; ++s) {
        uint32_t code = prefix | (s << fixed_cols);
        if (((code ^ value) & care) != 0) ++avail;  // outside the face
      }
      if (avail < count) return false;
    }
    return true;
  };

  std::vector<uint32_t> member_code(static_cast<size_t>(m));
  std::vector<bool> used(static_cast<size_t>(cells), false);
  bool found = false;
  auto rec = [&](auto&& self, int idx) -> void {
    if (found) return;
    if (idx == m) {
      uint32_t value = member_code[0];
      uint32_t care = cells - 1;
      for (int i = 0; i < m; ++i) care &= ~(value ^ member_code[i]);
      if (nonmembers_fit(care, value)) found = true;
      return;
    }
    uint32_t base =
        prefixes[static_cast<size_t>(c.members[static_cast<size_t>(idx)])] &
        prefix_mask;
    // Complementing any not-yet-generated column maps completions to
    // completions (prefixes untouched, faces preserved), so the first
    // member's suffix can be pinned to 0.
    const uint32_t suffix_end = idx == 0 ? 1 : nsuffix;
    for (uint32_t s = 0; s < suffix_end && !found; ++s) {
      uint32_t code = base | (s << fixed_cols);
      if (used[code]) continue;
      used[code] = true;
      member_code[static_cast<size_t>(idx)] = code;
      self(self, idx + 1);
      used[code] = false;
    }
  };
  rec(rec, 0);
  return found;
}

}  // namespace picola::check
