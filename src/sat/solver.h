#pragma once
// Small in-tree CDCL SAT solver: two-watched-literal propagation,
// first-UIP clause learning, VSIDS-lite branching (activity decay with
// deterministic lowest-index tie-breaking), phase saving, and Luby
// restarts.  Deliberately deterministic: the same CNF, options and call
// sequence always produce the same verdict and model, so the sat backend
// slots into the bit-identical-results contract of the encoding service.
//
// Branching keeps MiniSat's indexed variable-order heap (Een & Sorensson,
// "An Extensible SAT-solver", SAT 2003): a binary max-heap of variables
// keyed by (activity, lowest index) plus a var -> position map, so each
// variable sits in the heap at most once.  A bump sifts the variable up,
// backtracking re-inserts only variables that are absent, and the
// decision pops until it reaches an unassigned variable — the argmax of
// (activity, lowest index) over the unassigned variables.  Heap size and
// pop cost stay bounded by the variable count however long the search.
//
// The solver is incremental (the MiniSat lifecycle model):
//   * solve(assumptions) solves under a conjunction of assumption
//     literals, placed as the first decisions; kUnsat then means
//     "unsatisfiable under these assumptions", kSat models include them.
//     Learned clauses, variable activities and saved phases persist
//     across calls, so a sweep over related queries (the sat backend's
//     descending at-least-t search) reuses everything the refutations of
//     earlier targets taught the solver.
//   * add_var() / add_clause() grow the formula between calls (the lazy
//     distinctness encoding adds difference clauses only on conflict).
//   * max_conflicts is a per-call budget: each solve() call gets the
//     full budget regardless of what earlier calls consumed.
//   * the learned-clause database is reduced periodically (lowest
//     clause activity first, locked and binary clauses kept), so a long
//     incremental sweep does not drown propagation in stale lemmas.
//
// Effort bounds, in line with the rest of the tree's cooperative
// machinery (encoders/restart.h):
//   * max_conflicts — a deterministic budget; exceeding it returns
//     kUnknown (never a wrong verdict);
//   * deadline_ns — a wall-clock guard checked periodically; expiring
//     also returns kUnknown (reproducibility caveat documented in
//     docs/ENCODERS.md);
//   * cancel — the service's CancelToken, checked in the propagate and
//     decide loops; firing throws CancelledError so a TCP deadline
//     unwinds a long solve instead of hanging the pool.

#include <cstdint>
#include <memory>
#include <vector>

#include "encoders/restart.h"
#include "sat/cnf.h"

namespace picola::sat {

enum class SolveStatus { kSat, kUnsat, kUnknown };

const char* solve_status_name(SolveStatus s);

struct SolverOptions {
  /// Conflict budget per solve() call; 0 = unlimited.  Exceeding it
  /// returns kUnknown.
  long max_conflicts = 0;
  /// std::chrono::steady_clock deadline in ns since epoch; 0 = none.
  uint64_t deadline_ns = 0;
  /// Cooperative cancellation: checked in the propagate/decide loops,
  /// fires CancelledError.
  std::shared_ptr<const CancelToken> cancel;
  /// VSIDS activity decay factor per conflict.
  double var_decay = 0.95;
  /// Luby restart unit (conflicts).
  int restart_base = 100;
};

struct SolverStats {
  long decisions = 0;
  long propagations = 0;
  long conflicts = 0;
  long restarts = 0;
  long learned_clauses = 0;
  long learned_literals = 0;
  long db_reductions = 0;  ///< learned-clause database reductions
};

class Solver {
 public:
  /// Ingests `cnf` (validated with Cnf::validate; throws
  /// std::invalid_argument on a malformed formula).
  explicit Solver(const Cnf& cnf, SolverOptions opt = {});

  /// Solve (idempotent: a second call re-solves from the root).
  SolveStatus solve();

  /// Solve under `assumptions` (DIMACS literals, each asserted true).
  /// kUnsat means unsatisfiable *under the assumptions*; everything the
  /// call learned (clauses, activity, phases) is kept for later calls.
  SolveStatus solve(const std::vector<int>& assumptions);

  /// Allocate a fresh variable; returns its DIMACS number.  Usable
  /// between solve() calls (the lazy distinctness refinement).
  int add_var();

  /// Add one clause (DIMACS literals) to the live formula.  Backtracks
  /// to the root first; the clause is simplified against root-level
  /// assignments.  Returns false when it makes the formula unsatisfiable
  /// outright (subsequent solve() calls report kUnsat).
  bool add_clause(const std::vector<int>& dimacs_lits);

  /// Truth value of DIMACS variable `var` in the model; only meaningful
  /// after solve() returned kSat.
  bool model_value(int var) const;

  const SolverStats& stats() const { return stats_; }
  int num_vars() const { return num_vars_; }

 private:
  // Internal literal encoding: lit = 2*var + sign, var 0-based, sign 1 =
  // negated.  neg(lit) = lit ^ 1.
  static int internal(int dimacs_lit) {
    int v = dimacs_lit > 0 ? dimacs_lit : -dimacs_lit;
    return 2 * (v - 1) + (dimacs_lit < 0 ? 1 : 0);
  }

  int lit_value(int lit) const {  // -1 undef, 0 false, 1 true
    int8_t v = value_[static_cast<size_t>(lit >> 1)];
    return v < 0 ? -1 : (v ^ (lit & 1));
  }

  bool enqueue(int lit, int reason);
  int propagate();  ///< clause index of a conflict, or -1
  void analyze(int confl, std::vector<int>* learnt, int* bt_level);
  void backtrack(int level);
  SolveStatus search();  ///< the CDCL loop of one solve() call
  int pick_branch();  ///< decision literal, or -1 when all assigned
  void attach(int clause_index);
  void detach(int clause_index);
  void reduce_db();  ///< drop the low-activity half of the learned DB
  void bump(int var);
  void bump_clause(int clause_index);
  void decay();
  bool heap_before(int a, int b) const;  ///< a is the better decision
  void heap_up(size_t pos);
  void heap_down(size_t pos);
  void heap_insert(int var);  ///< no-op when var is already in the heap
  int heap_pop();
  void check_cancel() const;
  bool deadline_expired();
  SolveStatus finish(SolveStatus s);  ///< records sat/* obs counters

  int num_vars_ = 0;
  bool ok_ = true;  ///< false once a top-level conflict is known
  SolverOptions opt_;
  SolverStats stats_;
  SolverStats reported_;  ///< snapshot at the last finish() (obs deltas)

  struct ClauseMeta {
    float act = 0.f;       ///< activity (bumped when used in analyze)
    bool learned = false;  ///< eligible for reduce_db()
  };

  std::vector<std::vector<int>> clauses_;  ///< internal-literal clauses
  std::vector<ClauseMeta> meta_;           ///< parallel to clauses_
  std::vector<std::vector<int>> watches_;  ///< lit -> clause indices
  std::vector<int8_t> value_;              ///< var -> -1/0/1
  std::vector<int> level_;                 ///< var -> decision level
  std::vector<int> reason_;                ///< var -> clause index or -1
  std::vector<int> trail_;                 ///< assigned lits in order
  std::vector<int> trail_lim_;             ///< trail size per decision level
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  long live_learned_ = 0;   ///< learned clauses currently attached
  long reduce_limit_ = 0;   ///< live_learned_ threshold for reduce_db()
  std::vector<int> heap_;      ///< decision order: max-heap of vars
  std::vector<int> heap_pos_;  ///< var -> index in heap_, -1 when absent
  std::vector<uint8_t> polarity_;  ///< saved phase (1 = true)
  std::vector<uint8_t> seen_;      ///< analyze() scratch
  std::vector<int> assumptions_;  ///< internal lits of the current call
  long conflict_floor_ = 0;       ///< stats_.conflicts at call start
  long deadline_countdown_ = 0;
};

}  // namespace picola::sat
