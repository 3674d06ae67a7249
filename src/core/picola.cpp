#include "core/picola.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "base/lazy_mt64.h"
#include "check/reference_column.h"
#include "check/verifier.h"
#include "core/feasibility.h"
#include "encoders/restart.h"
#include "eval/constraint_eval.h"
#include "obs/obs.h"

namespace picola {
namespace detail {

namespace {

/// Solve() for the columns of one encode (docs/ALGORITHM.md, "One gain
/// pass per flip").
///
/// A column starts by splitting the symbols into classes that every
/// active row with unsatisfied entries treats alike (member, unsatisfied
/// non-member, or neither), and by packing each such row's member classes
/// and unsatisfied non-member classes into bitsets.  `entries` changes
/// only in record_column, so classes and bitsets stay fixed for the
/// column.  Each flip then scores every class that holds a legal
/// candidate in one row-major pass: a row's member term and non-member
/// term come once from its counts and go to every such class the row
/// holds, rows in ascending order.  So each candidate's gain receives the
/// terms the per-symbol reference (check/reference_column.h) adds, in the
/// same order, minus exact zeros (a gain is never -0.0, so skipping one
/// changes no sum): every gain is the same double and every tie-break the
/// same.  The buffers outlive the column, so an encode allocates them once.
///
/// Until the encode meets its first tie, each flip also compares the
/// chosen candidate with every other legal one (docs/ALGORITHM.md,
/// "Tie-free restarts").
class ColumnSolver {
 public:
  std::vector<int> solve(const ConstraintMatrix& m,
                         const std::vector<uint32_t>& prefixes,
                         int column_index, const PicolaOptions& opt);

  /// True once some flip of this encode met a tie.
  bool tied() const { return tied_; }

 private:
  /// An active row with unsatisfied entries.
  struct Row {
    double weight = 0;       ///< dichotomy weight this column
    int k = 0;               ///< row of the constraint matrix
    int size = 0;            ///< |L|
    int member_zeros = 0;
    long unsat = 0;          ///< unsatisfied non-member entries
    long unsat_at_zero = 0;  ///< ... of which have bit 0

    /// Weighted dichotomies this column will satisfy if the remaining
    /// bits stay as they are and `zeros` members are at 0: members
    /// uniform and opposite-valued unsatisfied non-members.
    double pending(int zeros) const {
      if (zeros == 0) return weight * static_cast<double>(unsat_at_zero);
      if (zeros == size)
        return weight * static_cast<double>(unsat - unsat_at_zero);
      return 0;
    }
  };

  /// Number each symbol's part of `ids` (all 0 on entry) so that two
  /// symbols share a number iff `part` agrees on them, refining `ids` one
  /// call at a time; `parts` bounds part's values.  Returns the count.
  template <typename Part>
  size_t refine(std::vector<int>* ids, size_t count, int parts, Part part);

  /// gain_[c] += term for every scored class c set in `row_classes`.
  void add_term(double term, const uint64_t* row_classes);

  size_t class_words_ = 0;  ///< 64-bit words per class bitset
  std::vector<int> group_;  ///< prefix group of each symbol
  std::vector<int> class_;  ///< class of each symbol
  std::vector<int> remap_, rep_;
  std::vector<long> group_size_, zeros_in_group_;
  std::vector<Row> rows_;
  std::vector<uint64_t> members_, unsat_;  ///< rows_.size() x class_words_
  std::vector<uint64_t> legal_;            ///< candidate symbols
  std::vector<uint64_t> scored_;           ///< classes holding a candidate
  std::vector<double> gain_;               ///< per class, scored_ only
  bool tied_ = false;
};

template <typename Part>
size_t ColumnSolver::refine(std::vector<int>* ids, size_t count, int parts,
                            Part part) {
  remap_.assign(count * static_cast<size_t>(parts), -1);
  int next = 0;
  for (size_t j = 0; j < ids->size(); ++j) {
    int& id = remap_[static_cast<size_t>((*ids)[j]) *
                         static_cast<size_t>(parts) +
                     static_cast<size_t>(part(j))];
    if (id < 0) id = next++;
    (*ids)[j] = id;
  }
  return static_cast<size_t>(next);
}

void ColumnSolver::add_term(double term, const uint64_t* row_classes) {
  for (size_t w = 0; w < class_words_; ++w)
    for (uint64_t b = row_classes[w] & scored_[w]; b != 0; b &= b - 1)
      gain_[w * 64 + static_cast<size_t>(std::countr_zero(b))] += term;
}

std::vector<int> ColumnSolver::solve(const ConstraintMatrix& m,
                                     const std::vector<uint32_t>& prefixes,
                                     int column_index,
                                     const PicolaOptions& opt) {
  const size_t n = static_cast<size_t>(m.num_symbols());
  const long cap = 1L << (m.nv() - column_index - 1);

  // Prefix groups, one split per earlier column, so the scratch stays
  // O(n) at any column.
  group_.assign(n, 0);
  size_t groups = 1;
  for (int b = 0; b < column_index; ++b)
    groups = refine(&group_, groups, 2,
                    [&](size_t j) { return (prefixes[j] >> b) & 1u; });
  group_size_.assign(groups, 0);
  for (size_t j = 0; j < n; ++j) ++group_size_[static_cast<size_t>(group_[j])];
  zeros_in_group_.assign(groups, 0);
  // Groups whose 1 side (every bit starts at 1) overflows the capacity.
  long oversized = 0;
  for (long size : group_size_) oversized += size > cap;

  // Rows, and the symbol classes they induce.
  class_.assign(n, 0);
  size_t classes = 1;
  rows_.clear();
  for (int k = 0; k < m.num_constraints(); ++k) {
    // A satisfied row has nothing left to gain.
    if (!m.active(k) || m.satisfied(k)) continue;
    Row row;
    row.k = k;
    classes = refine(&class_, classes, 3, [&](size_t j) {
      const int e = m.entry(k, static_cast<int>(j));
      row.unsat += e == 0;
      return e == ConstraintMatrix::kMember ? 1 : e == 0 ? 2 : 0;
    });
    const FaceConstraint& c = m.constraint(k);
    row.size = c.size();
    if (opt.unweighted) {
      row.weight = 1.0;
    } else {
      double satisfied_frac =
          1.0 - static_cast<double>(row.unsat) /
                    static_cast<double>(static_cast<long>(n) - row.size);
      row.weight = c.weight *
                   (1.0 + kProgressWeight * satisfied_frac) *
                   (1.0 + kSizeWeight / static_cast<double>(row.size));
    }
    rows_.push_back(row);
  }
  rep_.assign(classes, -1);
  for (size_t j = n; j-- > 0;)
    rep_[static_cast<size_t>(class_[j])] = static_cast<int>(j);
  class_words_ = (classes + 63) / 64;
  members_.assign(rows_.size() * class_words_, 0);
  unsat_.assign(rows_.size() * class_words_, 0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (size_t c = 0; c < classes; ++c) {
      const int e = m.entry(rows_[i].k, rep_[c]);
      const uint64_t bit = uint64_t{1} << (c % 64);
      if (e == ConstraintMatrix::kMember)
        members_[i * class_words_ + c / 64] |= bit;
      else if (e == 0)
        unsat_[i * class_words_ + c / 64] |= bit;
    }
  }

  std::vector<int> bits(n, 1);
  scored_.resize(class_words_);
  gain_.resize(classes);

  // A group takes flips while its 0 side has room and, until the column is
  // valid, only while its 1 side is oversized.
  auto group_open = [&](size_t g, bool valid) {
    return zeros_in_group_[g] + 1 <= cap &&
           (valid || group_size_[g] - zeros_in_group_[g] > cap);
  };
  auto for_each_legal = [&](auto f) {
    for (size_t w = 0; w < legal_.size(); ++w)
      for (uint64_t b = legal_[w]; b != 0; b &= b - 1)
        f(w * 64 + static_cast<size_t>(std::countr_zero(b)));
  };
  bool rebuild_legal = true;

  // Optional random tie-breaking for multi-start runs.
  LazyMt64 rng(opt.tie_break_seed * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(column_index));
  const bool randomize = opt.tie_break_seed != 0;
  constexpr double kTieEps = 1e-9;

  while (true) {
    // Validity: every (prefix, bit=1) group must fit under the remaining
    // columns' capacity; (prefix, bit=0) groups are kept legal by
    // construction.
    const bool valid = oversized == 0;
    if (valid && !opt.greedy_continue) break;

    if (rebuild_legal) {
      legal_.assign((n + 63) / 64, 0);
      for (size_t s = 0; s < n; ++s)
        if (bits[s] == 1 && group_open(static_cast<size_t>(group_[s]), valid))
          legal_[s / 64] |= uint64_t{1} << (s % 64);
      rebuild_legal = false;
    }
    std::fill(scored_.begin(), scored_.end(), 0);
    for_each_legal([&](size_t s) {
      const size_t c = static_cast<size_t>(class_[s]);
      scored_[c / 64] |= uint64_t{1} << (c % 64);
      gain_[c] = 0;
    });

    // Gain of flipping a candidate of each scored class to 0, one pass
    // over the rows.
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      const int z = row.member_zeros;
      const double member_term = row.pending(z + 1) - row.pending(z);
      // A non-member at 0 satisfies its dichotomy while the members are
      // uniform at 1, and loses a pending one once they are all at 0.
      const double other_term =
          z == 0 ? row.weight : z == row.size ? -row.weight : 0.0;
      if (member_term != 0)
        add_term(member_term, &members_[i * class_words_]);
      if (other_term != 0) add_term(other_term, &unsat_[i * class_words_]);
    }

    int best = -1;
    double best_gain = 0;
    int ties = 0;
    for_each_legal([&](size_t s) {
      const double gain = gain_[static_cast<size_t>(class_[s])];
      if (best < 0 || gain > best_gain + (randomize ? kTieEps : 0.0)) {
        best = static_cast<int>(s);
        best_gain = gain;
        ties = 1;
      } else if (randomize && gain > best_gain - kTieEps) {
        // Reservoir-sample among the tied candidates.
        ++ties;
        if (rng() % static_cast<uint64_t>(ties) == 0)
          best = static_cast<int>(s);
      }
    });
    if (best < 0) {
      assert(valid && "an oversized group always has a legal flip");
      break;
    }
    // Tie check: does another legal symbol come within kTieEps of the
    // chosen one, in either comparison the randomised scan makes?  A
    // stopping step flips nothing, and the deterministic scan stops only
    // when the largest gain is <= 0, so then every seed stops.  A
    // randomised scan stops on the gain that opened its tie window, so
    // its stopping step is checked too.
    const bool stop = valid && best_gain <= 0;
    if (!tied_ && (!stop || randomize)) {
      const double chosen =
          gain_[static_cast<size_t>(class_[static_cast<size_t>(best)])];
      for_each_legal([&](size_t t) {
        const double gain = gain_[static_cast<size_t>(class_[t])];
        if (t != static_cast<size_t>(best) &&
            (!(chosen > gain + kTieEps) || gain > chosen - kTieEps))
          tied_ = true;
      });
      if (tied_ && opt.on_first_tie) opt.on_first_tie();
    }
    if (stop) break;

    // Flip `best` to 0.  Only its group's legality and the rows that hold
    // its class change.
    const size_t s = static_cast<size_t>(best);
    bits[s] = 0;
    legal_[s / 64] &= ~(uint64_t{1} << (s % 64));
    const size_t g = static_cast<size_t>(group_[s]);
    if (group_size_[g] - zeros_in_group_[g] == cap + 1) --oversized;
    ++zeros_in_group_[g];
    if ((oversized == 0) != valid) {
      rebuild_legal = true;  // groups that fit reopen
    } else if (!group_open(g, valid)) {
      for_each_legal([&](size_t t) {
        if (static_cast<size_t>(group_[t]) == g)
          legal_[t / 64] &= ~(uint64_t{1} << (t % 64));
      });
    }
    const size_t c = static_cast<size_t>(class_[s]);
    const uint64_t bit = uint64_t{1} << (c % 64);
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (members_[i * class_words_ + c / 64] & bit)
        ++rows_[i].member_zeros;
      else if (unsat_[i * class_words_ + c / 64] & bit)
        ++rows_[i].unsat_at_zero;
    }
  }
  return bits;
}

}  // namespace

std::vector<int> solve_column(const ConstraintMatrix& m,
                              const std::vector<uint32_t>& prefixes,
                              int column_index, const PicolaOptions& opt) {
  return ColumnSolver().solve(m, prefixes, column_index, opt);
}

}  // namespace detail

PicolaResult picola_encode(const ConstraintSet& cs, const PicolaOptions& opt) {
  const int n = cs.num_symbols;
  if (n < 2)
    throw std::invalid_argument("picola_encode: need at least 2 symbols");
  if (std::string e = cs.validate(); !e.empty())
    throw std::invalid_argument("picola_encode: " + e);
  const int nv = Encoding::resolve_bits(n, opt.num_bits, "picola_encode");

  ConstraintMatrix m(cs, nv);
  detail::ColumnSolver solver;
  PicolaResult result;
  std::vector<std::vector<int>> columns;
  std::vector<uint32_t> prefixes(static_cast<size_t>(n), 0);

  PICOLA_OBS_SPAN(span_encode, "picola/encode");
  for (int col = 0; col < nv; ++col) {
    // Deadline/cancellation seam (encoders/restart.h): a fired token
    // abandons the run at the next column boundary.
    throw_if_cancelled(opt.cancel.get());
    PICOLA_OBS_SPAN(span_column, "picola/column");
    // Update_constraints(): classify, then attach/refresh guides.
    std::vector<int> infeasible;
    {
      PICOLA_OBS_SPAN(span_classify, "picola/classify");
      if (opt.use_classify) {
        infeasible = classify_infeasible(m);
      } else {
        // Static budget check only.
        for (int k = 0; k < m.num_constraints(); ++k) {
          if (!m.active(k) || m.infeasible(k) || m.satisfied(k)) continue;
          if (m.constraint(k).is_guide) continue;
          long dim = m.min_super_dim(k);
          if ((1L << dim) - m.constraint(k).size() > (1L << nv) - n)
            infeasible.push_back(k);
        }
      }
      ++result.stats.classify_calls;
      result.stats.classify_ms +=
          static_cast<double>(span_classify.elapsed_ns()) / 1e6;
    }
    result.stats.infeasible_per_column.push_back(
        static_cast<int>(infeasible.size()));
    for (int k : infeasible) {
      result.stats.infeasible_events.emplace_back(col, k);
      // The original stays in the cost function with reduced weight: its
      // remaining dichotomies still shrink the intruder set, which is what
      // makes the (dynamic) guide constraint meaningful.
      m.mark_infeasible(k);
      m.scale_weight(k, kInfeasibleWeightFactor);
      ++result.stats.constraints_deactivated;
    }
    if (opt.use_guides) {
      PICOLA_OBS_SPAN(span_guide, "guide/generate");
      // Refresh the guide of every infeasible original whose potential
      // intruder set shrank since the last column.
      const int original_rows = m.num_constraints();
      for (int k = 0; k < original_rows; ++k) {
        if (!m.infeasible(k) || m.constraint(k).is_guide) continue;
        auto g = make_guide(m, k, opt.guide);
        if (!g) continue;
        int old = m.guide_of(k);
        if (old >= 0 && m.constraint(old).members == g->members) continue;
        if (old >= 0) m.deactivate(old);
        int idx = m.add_constraint(*g, columns);
        m.set_guide_of(k, idx);
        if (old < 0) ++result.stats.guides_added;
      }
      result.stats.guide_ms +=
          static_cast<double>(span_guide.elapsed_ns()) / 1e6;
    }

    // Solve(): one column.
    std::vector<int> bits;
    {
      PICOLA_OBS_SPAN(span_solve, "picola/column_select");
      bits = solver.solve(m, prefixes, col, opt);
      result.stats.solve_ms +=
          static_cast<double>(span_solve.elapsed_ns()) / 1e6;
    }
    if (opt.self_check) {
      check::enforce(check::verify_column(bits, prefixes, col, nv), "column");
      check::enforce(
          check::verify_column_reference(bits, m, prefixes, col, opt),
          "column_reference");
    }
    m.record_column(bits);
    for (int j = 0; j < n; ++j)
      prefixes[static_cast<size_t>(j)] |=
          static_cast<uint32_t>(bits[static_cast<size_t>(j)]) << col;
    columns.push_back(std::move(bits));
    if (span_column.elapsed_ns() > 0)
      result.stats.column_ms.push_back(
          static_cast<double>(span_column.elapsed_ns()) / 1e6);
  }

  result.stats.tie_free = !solver.tied();
  result.encoding.num_symbols = n;
  result.encoding.num_bits = nv;
  result.encoding.codes = prefixes;
  assert(result.encoding.validate().empty());
  if (opt.self_check)
    check::enforce(check::verify_run(cs, m, result.encoding), "run");

  for (int k = 0; k < static_cast<int>(cs.constraints.size()); ++k)
    if (m.satisfied(k)) ++result.stats.satisfied_constraints;
  return result;
}

PicolaOptions picola_restart_options(const PicolaOptions& opt, int restart) {
  PicolaOptions o = opt;
  o.tie_break_seed = restart_seed(opt.tie_break_seed, restart);
  return o;
}

PicolaResult picola_encode_best(const ConstraintSet& cs, int restarts,
                                const PicolaOptions& opt) {
  PICOLA_OBS_SPAN(span_best, "picola/encode_best");
  PicolaResult best = picola_encode(cs, opt);
  // A tie-free restart 0 is every restart, and the lowest index wins.
  if (restarts <= 1 || best.stats.tie_free) return best;
  RestartWinner winner;
  winner.offer(evaluate_constraints(cs, best.encoding).total_cubes, 0);
  for (int r = 1; r < restarts; ++r) {
    throw_if_cancelled(opt.cancel.get());
    PicolaResult cand = picola_encode(cs, picola_restart_options(opt, r));
    if (winner.offer(evaluate_constraints(cs, cand.encoding).total_cubes, r))
      best = std::move(cand);
  }
  return best;
}

}  // namespace picola
