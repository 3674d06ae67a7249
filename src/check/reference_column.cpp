#include "check/reference_column.h"

#include <cassert>
#include <random>
#include <string>
#include <unordered_map>

namespace picola::check {

namespace {

/// Per-constraint bookkeeping while a column is under construction.
struct ColState {
  double weight = 0;   ///< dichotomy weight this column
  int size = 0;        ///< |L|
  int member_zeros = 0;
  long unsat_at_zero = 0;  ///< unsatisfied non-member entries with bit 0
  long unsat_at_one = 0;   ///< unsatisfied non-member entries with bit 1
  bool active = false;

  /// Weighted dichotomies this column will satisfy if the remaining bits
  /// stay as they are: members uniform and opposite-valued unsatisfied
  /// non-members.
  double pending() const {
    if (!active) return 0;
    if (member_zeros == 0) return weight * static_cast<double>(unsat_at_zero);
    if (member_zeros == size) return weight * static_cast<double>(unsat_at_one);
    return 0;
  }
};

}  // namespace

std::vector<int> reference_solve_column(const ConstraintMatrix& m,
                                        const std::vector<uint32_t>& prefixes,
                                        int column_index,
                                        const PicolaOptions& opt) {
  const int n = m.num_symbols();
  const int nv = m.nv();
  const long cap = 1L << (nv - column_index - 1);

  // Prefix groups.
  std::unordered_map<uint32_t, int> group_of_prefix;
  std::vector<int> group(static_cast<size_t>(n));
  std::vector<long> group_size;
  for (int j = 0; j < n; ++j) {
    auto [it, fresh] = group_of_prefix.try_emplace(
        prefixes[static_cast<size_t>(j)],
        static_cast<int>(group_size.size()));
    if (fresh) group_size.push_back(0);
    group[static_cast<size_t>(j)] = it->second;
    ++group_size[static_cast<size_t>(it->second)];
  }
  std::vector<long> zeros_in_group(group_size.size(), 0);

  // Constraint state.
  const int r = m.num_constraints();
  std::vector<ColState> cs(static_cast<size_t>(r));
  for (int k = 0; k < r; ++k) {
    ColState& st = cs[static_cast<size_t>(k)];
    st.active = m.active(k);
    if (!st.active) continue;
    const FaceConstraint& c = m.constraint(k);
    st.size = c.size();
    long unsat = 0;
    for (int j = 0; j < n; ++j)
      if (m.entry(k, j) == 0) ++unsat;
    st.unsat_at_one = unsat;  // every bit starts at 1
    if (unsat == 0) {
      st.active = false;  // nothing left to gain from this constraint
      continue;
    }
    if (opt.unweighted) {
      st.weight = 1.0;
    } else {
      double satisfied_frac =
          1.0 - static_cast<double>(unsat) / static_cast<double>(n - st.size);
      st.weight = c.weight *
                  (1.0 + opt.progress_weight * satisfied_frac) *
                  (1.0 + opt.size_weight / static_cast<double>(st.size));
    }
  }

  std::vector<int> bits(static_cast<size_t>(n), 1);

  // Gain of flipping symbol `s` to 0 given the current column state.
  auto gain_of = [&](int s) {
    double gain = 0;
    for (int k = 0; k < r; ++k) {
      ColState& st = cs[static_cast<size_t>(k)];
      if (!st.active) continue;
      int e = m.entry(k, s);
      if (e == ConstraintMatrix::kMember) {
        double before = st.pending();
        ++st.member_zeros;
        double after = st.pending();
        --st.member_zeros;
        gain += after - before;
      } else if (e == 0) {
        if (st.member_zeros == 0)
          gain += st.weight;  // members (still) uniform at 1, s drops to 0
        else if (st.member_zeros == st.size)
          gain -= st.weight;  // members at 0: s at 1 was a pending dichotomy
      }
    }
    return gain;
  };

  auto flip = [&](int s) {
    bits[static_cast<size_t>(s)] = 0;
    ++zeros_in_group[static_cast<size_t>(group[static_cast<size_t>(s)])];
    for (int k = 0; k < r; ++k) {
      ColState& st = cs[static_cast<size_t>(k)];
      if (!st.active) continue;
      int e = m.entry(k, s);
      if (e == ConstraintMatrix::kMember) {
        ++st.member_zeros;
      } else if (e == 0) {
        --st.unsat_at_one;
        ++st.unsat_at_zero;
      }
    }
  };

  // Optional random tie-breaking for multi-start runs.
  std::mt19937_64 rng(opt.tie_break_seed * 0x9E3779B97F4A7C15ULL +
                      static_cast<uint64_t>(column_index));
  const bool randomize = opt.tie_break_seed != 0;
  constexpr double kTieEps = 1e-9;

  while (true) {
    // Validity: every (prefix, bit=1) group must fit under the remaining
    // columns' capacity; (prefix, bit=0) groups are kept legal by
    // construction.
    bool valid = true;
    for (size_t g = 0; g < group_size.size(); ++g) {
      if (group_size[g] - zeros_in_group[g] > cap) {
        valid = false;
        break;
      }
    }
    if (valid && !opt.greedy_continue) break;

    int best = -1;
    double best_gain = 0;
    int ties = 0;
    for (int s = 0; s < n; ++s) {
      if (bits[static_cast<size_t>(s)] == 0) continue;
      size_t g = static_cast<size_t>(group[static_cast<size_t>(s)]);
      if (zeros_in_group[g] + 1 > cap) continue;  // would overfill the 0 side
      if (!valid && group_size[g] - zeros_in_group[g] <= cap)
        continue;  // must make progress on an oversized group first
      double gain = gain_of(s);
      if (best < 0 || gain > best_gain + (randomize ? kTieEps : 0.0)) {
        best = s;
        best_gain = gain;
        ties = 1;
      } else if (randomize && gain > best_gain - kTieEps) {
        // Reservoir-sample among the tied candidates.
        ++ties;
        if (rng() % static_cast<uint64_t>(ties) == 0) best = s;
      }
    }
    if (best < 0) {
      assert(valid && "an oversized group always has a legal flip");
      break;
    }
    if (valid && best_gain <= 0) break;
    flip(best);
  }
  return bits;
}

VerifyReport verify_column_reference(const std::vector<int>& bits,
                                     const ConstraintMatrix& m,
                                     const std::vector<uint32_t>& prefixes,
                                     int column_index,
                                     const PicolaOptions& opt) {
  VerifyReport rep;
  const std::vector<int> ref =
      reference_solve_column(m, prefixes, column_index, opt);
  if (bits.size() != ref.size()) {
    rep.add("column " + std::to_string(column_index) + ": " +
            std::to_string(bits.size()) + " bits, reference " +
            std::to_string(ref.size()));
    return rep;
  }
  for (size_t j = 0; j < ref.size(); ++j) {
    if (bits[j] == ref[j]) continue;
    rep.add("column " + std::to_string(column_index) + ": symbol " +
            std::to_string(j) + " has bit " + std::to_string(bits[j]) +
            ", reference solver " + std::to_string(ref[j]));
    break;
  }
  return rep;
}

}  // namespace picola::check
