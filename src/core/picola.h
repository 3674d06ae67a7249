#pragma once
// PICOLA — Partial Input COLumn based Algorithm (the paper's contribution).
//
// Generates a minimum-length encoding column by column.  Before each
// column, Update_constraints() runs Classify() to detect constraints that
// can no longer be satisfied and substitutes them by their
// guide-constraints; Solve() then builds the column greedily, flipping the
// bit that maximises a weighted sum of newly satisfied seed dichotomies
// while keeping the partial encoding valid (every group of symbols sharing
// a code prefix still fits in the codes the remaining columns can provide).

#include <memory>
#include <utility>
#include <vector>

#include "constraints/constraint_matrix.h"
#include "core/guide.h"
#include "encoders/encoding.h"
#include "encoders/restart.h"

namespace picola {

/// Tunable knobs; the defaults reproduce the paper's algorithm, the flags
/// exist for the ablation benches (DESIGN.md §7).
struct PicolaOptions {
  /// Substitute infeasible constraints by guide constraints (§3.2).
  bool use_guides = true;
  /// Run the pairwise nv-compatibility Classify() (§3.3); when off, only
  /// the static unused-code budget check is applied.
  bool use_classify = true;
  /// Keep flipping bits while the gain is positive after the column first
  /// becomes valid; when off, stop at the first valid column (the paper's
  /// literal Solve() description).
  bool greedy_continue = true;
  /// Weight the dichotomies of nearly-satisfied constraints higher:
  /// w *= 1 + progress_weight * satisfied_fraction.
  double progress_weight = 1.0;
  /// Weight small constraints higher (they are cheaper to finish):
  /// w *= 1 + size_weight / |L|.
  double size_weight = 1.0;
  /// Use plain unweighted dichotomy counts (ablation: the ENC objective).
  bool unweighted = false;
  /// Weight multiplier applied to a constraint once it is classified
  /// infeasible (it stays in the cost function so its remaining
  /// dichotomies keep shrinking the intruder set).
  double infeasible_weight_factor = 0.5;
  /// Code length; 0 selects the minimum ceil(log2 n).
  int num_bits = 0;
  /// Guide-constraint construction policy.
  GuideOptions guide;
  /// Random tie-breaking seed for multi-start runs; 0 keeps the
  /// deterministic lowest-index rule.
  uint64_t tie_break_seed = 0;
  /// Run the src/check verifier during the encode: each Solve() column is
  /// checked against the prefix-capacity invariant and against the
  /// per-symbol reference solver (check::reference_solve_column, bit for
  /// bit), and the finished run against the full from-scratch replay
  /// (check::verify_run).  Violations
  /// bump the check/* counters in the global MetricsRegistry and raise
  /// check::SelfCheckError.  Off by default; when off the cost is a single
  /// branch per column.
  bool self_check = false;
  /// Cooperative cancellation (encoders/restart.h): checked before every
  /// Solve() column and before every restart of picola_encode_best; a
  /// fired token aborts the run with CancelledError.  Never affects the
  /// result of a run that completes, so it is excluded from the service
  /// fingerprint and stripped by canonicalize() (service/job.h).
  std::shared_ptr<const CancelToken> cancel;
};

/// Diagnostics of one run.
///
/// The *_ms timing fields are fed from the obs tracer spans
/// (src/obs/obs.h) and stay 0 unless obs::set_enabled(true) was called
/// before the run (the CLI's --stats-json / --trace / --metrics flags do
/// that); the counts are always filled.
struct PicolaStats {
  int guides_added = 0;
  int constraints_deactivated = 0;
  /// Infeasible constraints detected before each column.
  std::vector<int> infeasible_per_column;
  /// Every infeasibility flag as (column, row): row was classified
  /// infeasible just before generating `column`.  Rows < the input set's
  /// size are original constraints; later rows are guides.  Always filled
  /// (the fuzz harness differential-tests these against the exact
  /// small-instance oracle).
  std::vector<std::pair<int, int>> infeasible_events;
  /// Satisfied original constraints at the end.
  int satisfied_constraints = 0;
  /// Update_constraints() classification passes (one per column).
  long classify_calls = 0;
  /// Wall time of each column (classify + guides + solve), obs on only.
  std::vector<double> column_ms;
  /// Per-phase totals across all columns, obs on only.
  double classify_ms = 0;
  double guide_ms = 0;
  double solve_ms = 0;
};

/// Result of a run.
struct PicolaResult {
  Encoding encoding;
  PicolaStats stats;
};

/// Encode `cs.num_symbols` symbols (>= 2) with minimum code length,
/// maximising cheap implementation of the face constraints.
///
/// Throws std::invalid_argument on malformed input instead of asserting:
/// fewer than 2 symbols, a set rejected by ConstraintSet::validate(), or
/// an opt.num_bits that is negative, below Encoding::min_bits(n), or
/// above 31 (codes are uint32_t).  Throws check::SelfCheckError when
/// opt.self_check is set and an internal invariant fails.
PicolaResult picola_encode(const ConstraintSet& cs,
                           const PicolaOptions& opt = {});

/// Quality mode: run PICOLA `restarts` times (the first with the caller's
/// tie-breaking seed — by default deterministic — the rest with seeds
/// derived from it; see encoders/restart.h) and return the run with the
/// smallest espresso-evaluated total cube count, ties broken by lowest
/// restart index.  The restarts are independent, so the concurrent
/// EncodingService (src/service) fans them out as pool tasks and reduces
/// with the same rule, producing bit-identical results.
PicolaResult picola_encode_best(const ConstraintSet& cs, int restarts,
                                const PicolaOptions& opt = {});

/// Options of restart `restart` (0-based) of a multi-start plan based on
/// `opt`: restart 0 keeps opt.tie_break_seed, restart r > 0 uses
/// restart_seed(opt.tie_break_seed, r).  This is the per-restart entry
/// point of the fan-out hook.
PicolaOptions picola_restart_options(const PicolaOptions& opt, int restart);

namespace detail {

/// One Solve() column (exposed for unit tests): returns the bit of every
/// symbol in the next column given the matrix state and the prefixes
/// (codes built from the already generated columns).
std::vector<int> solve_column(const ConstraintMatrix& m,
                              const std::vector<uint32_t>& prefixes,
                              int column_index, const PicolaOptions& opt);

}  // namespace detail

}  // namespace picola
