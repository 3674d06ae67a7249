#pragma once
// Reduction of face-constrained encoding to SAT (the `sat_exact`
// backend).
//
// Variables (DIMACS, 1-based):
//   * x[s][b] = 1 + s*nv + b — bit b of symbol s's code;
//   * distinctness: per symbol pair (s, t) and bit b an aux var d[s][t][b]
//     with d → "bit b differs", plus one "some bit differs" clause per
//     pair — O(n²·nv) vars and clauses, so the big Table I instances
//     (tbk, planet, scf) stay tractable;
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
#include <vector>

#include "constraints/face_constraint.h"
#include "encoders/encoding.h"
#include "encoders/restart.h"
#include "sat/cnf.h"
#include "sat/solver.h"

namespace picola::sat {

// The reduction has one configuration.  These one-value enums keep the
// SatExactOptions and portfolio::PortfolioOptions fields that
// perfbench/src/replay.cpp still assigns; nothing reads those fields.
// Each value is the number the job fingerprint and the persist record
// have always held for it, so cache keys and stored records are
// unchanged.
enum class CardEncoding { kSequential = 1 };
enum class DistinctEncoding { kDifference = 0 };
enum class SweepMode { kDescending = 0 };

struct ReductionOptions {
  /// Emit a selector variable per constraint instead of hard face
  /// clauses.
  bool with_selectors = false;
};

/// The CNF for one (constraint set, code length) pair plus the variable
/// map needed to decode models and interpret selectors.
struct FaceCnf {
  Cnf cnf;
  int num_symbols = 0;
  int num_bits = 0;
  /// Selector variable y_k per constraint (with_selectors only).
  std::vector<int> selectors;

  /// DIMACS variable of bit `b` of symbol `s`.
  int bit_var(int s, int b) const { return 1 + s * num_bits + b; }
};

/// Build the reduction at `nv` bits.  Throws std::invalid_argument on an
/// invalid set, nv outside [1, 20], or more symbol pairs × bits than the
/// difference encoding is built for (50 million).
FaceCnf build_face_cnf(const ConstraintSet& cs, int nv,
                       const ReductionOptions& opt = {});

/// Read the encoding out of a kSat model.
Encoding decode_model(const FaceCnf& fc, const Solver& solver);

struct SatExactOptions {
  int num_bits = 0;  ///< 0 = minimum length
  /// Not read (see CardEncoding above).
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
/// simultaneously satisfied constraints.  The search descends over the
/// at-least-t targets on one incremental solver; after three
/// budget-exhausted targets in a row it climbs from t = 0 on a fresh
/// solver instead.  feasible=false with proven=true means no distinct
/// nv-bit encoding exists at all (nv below the minimum length).  The
/// reported model comes from one final canonical solve of (CNF, best
/// target) on a fresh solver, so it is a pure function of the formula
/// and the target, whatever learned-clause state the sweep built up.
/// When the descent's first call (target m, on a fresh solver) is
/// satisfiable, that call is the canonical solve and is not repeated.
/// Throws std::invalid_argument for a num_bits that is negative or above
/// 20, and CancelledError if the token fires mid-search.
SatExactResult sat_exact_encode(const ConstraintSet& cs,
                                const SatExactOptions& opt = {});

}  // namespace picola::sat
