#pragma once
// Encoder backends behind one front-end: the paper's PICOLA, the exact
// SAT reduction (src/sat), and the stochastic annealer — behind a common
// task/outcome interface so the EncodingService can fan any of them onto
// its thread pool with the same deterministic reduction it uses for
// plain multi-start PICOLA.
//
// Determinism contract: a plan is a fixed list of (backend, restart)
// slots.  The portfolio plan is the PICOLA restarts, with exactly the
// seeds of a picola-only run, then the single SAT slot.  The annealer
// is not in it: it took two orders of magnitude longer than PICOLA and
// won one Table I instance by one cube, so a portfolio job would only
// wait for it.  It stays a backend of its own (`--backend anneal`, slot
// r seeded with restart_seed(anneal_seed, r)) and the paper-comparison
// baseline.  Every slot is bounded by deterministic budgets (column
// algorithm / conflict budget / fixed cooling schedule), and the winner
// is the lowest (espresso cube count, plan index) among feasible slots.
// Hence a portfolio run is bit-identical across repeated executions and
// *structurally never worse* than PICOLA alone: the picola slots come
// first, so the SAT slot must strictly beat their cube count to win.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/picola.h"
#include "sat/cnf.h"
#include "sat/encode.h"
#include "sat/solver.h"

namespace picola::portfolio {

enum class BackendKind {
  kPicola,     ///< the paper's column-by-column algorithm
  kSat,        ///< exact CNF reduction + in-tree CDCL (src/sat)
  kAnneal,     ///< seeded stochastic flipper (encoders/annealing.h)
  kPortfolio,  ///< picola and sat, racing
};

const char* backend_kind_name(BackendKind k);
std::optional<BackendKind> parse_backend_kind(std::string_view name);

/// Backend knobs carried by a service Job next to the PicolaOptions.
/// Everything here affects results, so all of it is fingerprinted.
struct PortfolioOptions {
  BackendKind backend = BackendKind::kPicola;
  /// Cardinality encoding of the SAT reduction.
  sat::CardEncoding sat_card = sat::CardEncoding::kSequential;
  /// Distinctness encoding of the SAT reduction.
  sat::DistinctEncoding sat_distinct = sat::DistinctEncoding::kDifference;
  /// Search strategy of the SAT backend's at-least-t sweep.
  sat::SweepMode sat_sweep = sat::SweepMode::kDescending;
  /// Deterministic conflict budget per SAT solver call; 0 = unlimited.
  long sat_max_conflicts = 200'000;
  /// Base seed of the `--backend anneal` slots (slot r uses
  /// restart_seed(seed, r)).  Fingerprinted for every backend.
  uint64_t anneal_seed = 1;
};

bool portfolio_options_equal(const PortfolioOptions& a,
                             const PortfolioOptions& b);

/// One slot of a plan: which backend, and its restart index within that
/// backend (always 0 for kSat — the reduction is deterministic, rerunning
/// it buys nothing).
struct BackendTask {
  BackendKind kind = BackendKind::kPicola;
  int restart = 0;
};

/// The slot list for `backend` at `restarts` multi-starts.  kPortfolio =
/// picola x restarts, then sat; single-backend kinds contain just their
/// own slots.
std::vector<BackendTask> portfolio_plan(BackendKind backend, int restarts);

/// The outcome of one slot.  Infeasibility (the SAT backend proving or
/// failing to find an encoding within budget) is a value, not an error:
/// feasible=false with a note in `error`.
struct BackendOutcome {
  PicolaResult result;  ///< encoding + stats (all backends fill both)
  long total_cubes = 0;
  BackendKind backend = BackendKind::kPicola;
  bool feasible = false;
  std::string error;
  /// kSat only: aggregated CDCL statistics and the number of Solver calls
  /// across the at-least-t sweep, surfaced as sat/* service counters so
  /// the solver is no longer a black box (zeros for other backends, and
  /// for sat slots that fail before reaching the solver).
  sat::SolverStats sat_stats;
  long sat_solver_calls = 0;
};

/// Run one slot.  `popt` supplies num_bits / tie_break_seed / self_check
/// (self_check verifies *every* backend's encoding through
/// check::verify_encoding, not just PICOLA's own internal checks);
/// `cancel` is attached to the slot's cooperative cancellation hooks.
///
/// Error contract: kPicola slots propagate every exception (preserving
/// the service's fault-injection semantics); kSat/kAnneal slots degrade
/// ordinary failures to an infeasible outcome but re-throw CancelledError
/// and check::SelfCheckError, which must abort the whole job.
BackendOutcome run_backend_task(const ConstraintSet& cs,
                                const PicolaOptions& popt,
                                const PortfolioOptions& fopt, BackendTask task,
                                std::shared_ptr<const CancelToken> cancel);

/// Index of the winning slot: lowest (total_cubes, plan index) among
/// feasible outcomes; -1 when none is feasible.  Matches RestartWinner's
/// rule, so a picola-only plan reduces exactly as before.
int reduce_outcomes(const std::vector<BackendOutcome>& outcomes);

}  // namespace picola::portfolio
