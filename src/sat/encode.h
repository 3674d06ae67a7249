#pragma once
// Reduction of face-constrained encoding to SAT (the `sat_exact`
// backend).
//
// Variables (DIMACS, 1-based):
//   * x[s][b] = 1 + s*nv + b — bit b of symbol s's code;
//   * distinctness, selectable (`DistinctEncoding`):
//       - kDifference (default): per symbol pair (s, t) and bit b an aux
//         var d[s][t][b] with d → "bit b differs", plus one "some bit
//         differs" clause per pair — O(n²·nv) vars and clauses, so the
//         big Table I instances (tbk, planet, scf) stay tractable;
//       - kIndicator: the legacy code-indicator formulation u[s][c]
//         ("symbol s holds word c") with a per-word at-most-one — an
//         O(n·2^nv) blowup kept only for comparison and kept behind its
//         original size guard;
//       - kLazy: no distinctness clauses up front; the solver adds a
//         pair's difference clauses only when a model actually collides
//         on that pair (counterexample-guided refinement, incremental
//         solver required).
//   * per constraint k, per non-member t, per bit b: separator variables
//     sep1/sep0 witnessing "every member fixes bit b to 1 (resp. 0) and
//     t carries the opposite value" via shared all1/all0[k][b] aux vars.
//     A face constraint holds iff every non-member has some separating
//     bit, i.e. the supercube of the members is intruder-free.
//   * optional selector y_k per constraint: the face clauses are guarded
//     by ¬y_k, and a search over the selectors maximises the number of
//     simultaneously satisfied constraints.
//
// Symmetry breaking: symbol 0 is pinned to code 0 (column
// complementation preserves faces, distinctness and cube counts — the
// same argument the brute-force oracle uses), shrinking the search space
// 2^nv-fold without losing solutions.

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "constraints/face_constraint.h"
#include "encoders/encoding.h"
#include "encoders/restart.h"
#include "sat/cnf.h"
#include "sat/solver.h"

namespace picola::sat {

/// Distinctness ("all codes differ") encoding family.
enum class DistinctEncoding {
  kDifference,  ///< per-pair "some bit differs" aux vars (polynomial)
  kIndicator,   ///< legacy code indicators u[s][c] (O(n·2^nv), guarded)
  kLazy,        ///< difference clauses added only on model collision
};

const char* distinct_encoding_name(DistinctEncoding e);
std::optional<DistinctEncoding> parse_distinct_encoding(std::string_view name);

/// How sat_exact_encode searches for the maximum at-least-t target.
enum class SweepMode {
  kDescending,  ///< t = m, m-1, ... on ONE incremental solver (default);
                ///< after 3 consecutive budget-exhausted targets it
                ///< bails out to ascending solution-improving search
                ///< (the answer is unproven by then anyway)
  kBinary,      ///< binary search over t on one incremental solver
  kScratch,     ///< descending, fresh solver + CNF per target (the PR 6
                ///< behavior; the fuzz harness diffs it against the
                ///< incremental modes)
};

const char* sweep_mode_name(SweepMode m);
std::optional<SweepMode> parse_sweep_mode(std::string_view name);

struct ReductionOptions {
  /// Cardinality encoding for the indicator distinctness at-most-one.
  CardEncoding card = CardEncoding::kSequential;
  /// Distinctness encoding (see DistinctEncoding).
  DistinctEncoding distinct = DistinctEncoding::kDifference;
  /// Emit a selector variable per constraint instead of hard face
  /// clauses.
  bool with_selectors = false;
  /// Pin symbol 0 to code 0 (sound up to column complementation).
  bool pin_symbol0 = true;
};

/// The CNF for one (constraint set, code length) pair plus the variable
/// map needed to decode models and interpret selectors.
struct FaceCnf {
  Cnf cnf;
  int num_symbols = 0;
  int num_bits = 0;
  DistinctEncoding distinct = DistinctEncoding::kDifference;
  bool pinned_symbol0 = false;
  /// Selector variable y_k per constraint (with_selectors only).
  std::vector<int> selectors;

  /// DIMACS variable of bit `b` of symbol `s`.
  int bit_var(int s, int b) const { return 1 + s * num_bits + b; }
};

/// Build the reduction at `nv` bits.  Throws std::invalid_argument on an
/// invalid set, nv outside [1, 20], or — for kIndicator only — a code
/// space too large for the indicator encoding (n * 2^nv > 500'000).
FaceCnf build_face_cnf(const ConstraintSet& cs, int nv,
                       const ReductionOptions& opt = {});

/// Add the difference-encoding clauses of the single pair (s, t) to a
/// live solver (the lazy refinement step): one aux var per bit plus the
/// "some bit differs" clause.
void add_pair_difference(Solver& solver, const FaceCnf& fc, int s, int t);

/// Read the encoding out of a kSat model.
Encoding decode_model(const FaceCnf& fc, const Solver& solver);

struct SatExactOptions {
  int num_bits = 0;  ///< 0 = minimum length
  CardEncoding card = CardEncoding::kSequential;
  DistinctEncoding distinct = DistinctEncoding::kDifference;
  SweepMode sweep = SweepMode::kDescending;
  /// Conflict budget per solver call (deterministic bound); 0 = none.
  long max_conflicts = 200'000;
  /// std::chrono::steady_clock deadline in ns; 0 = none.  Soft wall-clock
  /// guard only — determinism comes from the conflict budget.
  uint64_t deadline_ns = 0;
  std::shared_ptr<const CancelToken> cancel;
};

struct SatExactResult {
  Encoding encoding;  ///< valid iff feasible
  bool feasible = false;
  /// Constraints simultaneously satisfied by `encoding` (0 when
  /// infeasible).
  int satisfied = 0;
  /// True when the verdict is exact: every higher satisfaction target —
  /// or, when infeasible, the base distinctness problem — was refuted
  /// within budget rather than timed out.
  bool proven = false;
  SolverStats stats;      ///< accumulated over all solver calls
  long solver_calls = 0;
};

/// Exact encoder: find an nv-bit encoding maximising the number of
/// simultaneously satisfied constraints via a search over the selector
/// variables (descending, binary, or per-target-scratch — see
/// SweepMode).  feasible=false with proven=true means no distinct nv-bit
/// encoding exists at all (nv below the minimum length).  The reported
/// model always comes from one final canonical solve of (CNF, best
/// target) on a fresh solver, so every sweep mode that proves the same
/// target returns the same encoding bit for bit.  Throws CancelledError
/// if the token fires mid-search.
SatExactResult sat_exact_encode(const ConstraintSet& cs,
                                const SatExactOptions& opt = {});

}  // namespace picola::sat
