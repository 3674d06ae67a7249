#include "sat/solver.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/obs.h"

namespace picola::sat {

namespace {

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
long luby(long x) {
  long size = 1, seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return 1L << seq;
}

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* solve_status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kSat: return "sat";
    case SolveStatus::kUnsat: return "unsat";
    case SolveStatus::kUnknown: return "unknown";
  }
  return "?";
}

Solver::Solver(const Cnf& cnf, SolverOptions opt)
    : num_vars_(cnf.num_vars), opt_(std::move(opt)) {
  std::string err = cnf.validate();
  if (!err.empty()) throw std::invalid_argument("sat: bad cnf: " + err);

  size_t n = static_cast<size_t>(num_vars_);
  value_.assign(n, -1);
  level_.assign(n, 0);
  reason_.assign(n, -1);
  activity_.assign(n, 0.0);
  polarity_.assign(n, 0);
  seen_.assign(n, 0);
  watches_.assign(2 * n, {});
  // All activities start at 0, so index order is already a valid heap.
  heap_.resize(n);
  heap_pos_.resize(n);
  for (int v = 0; v < num_vars_; ++v)
    heap_[static_cast<size_t>(v)] = heap_pos_[static_cast<size_t>(v)] = v;

  std::vector<int> lits;
  for (const auto& clause : cnf.clauses) {
    lits.clear();
    for (int d : clause) lits.push_back(internal(d));
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    bool tautology = false;
    for (size_t i = 0; i + 1 < lits.size(); ++i)
      if ((lits[i] ^ 1) == lits[i + 1]) { tautology = true; break; }
    if (tautology) continue;
    if (lits.size() == 1) {
      if (!enqueue(lits[0], -1)) ok_ = false;
      continue;
    }
    clauses_.push_back(lits);
    meta_.push_back({});
    attach(static_cast<int>(clauses_.size()) - 1);
  }
  // Let the learned DB grow to a third of the problem before the first
  // reduction (MiniSat's learntsize_factor), with a floor so tiny
  // formulas still keep a useful lemma set.
  reduce_limit_ =
      std::max<long>(4'000, static_cast<long>(clauses_.size()) / 3);
}

void Solver::attach(int ci) {
  const std::vector<int>& c = clauses_[static_cast<size_t>(ci)];
  watches_[static_cast<size_t>(c[0])].push_back(ci);
  watches_[static_cast<size_t>(c[1])].push_back(ci);
}

void Solver::detach(int ci) {
  const std::vector<int>& c = clauses_[static_cast<size_t>(ci)];
  for (int w = 0; w < 2; ++w) {
    std::vector<int>& list = watches_[static_cast<size_t>(c[w])];
    // Order-preserving erase: watch-list order drives propagation order,
    // so a swap-with-back removal would perturb determinism.
    list.erase(std::find(list.begin(), list.end(), ci));
  }
}

void Solver::bump_clause(int ci) {
  float& a = meta_[static_cast<size_t>(ci)].act;
  a += static_cast<float>(cla_inc_);
  if (a > 1e20f) {
    for (ClauseMeta& m : meta_) m.act *= 1e-20f;
    cla_inc_ *= 1e-20;
  }
}

void Solver::reduce_db() {
  // Candidates: learned, still attached, longer than binary, and not the
  // reason of a current assignment (a locked clause's asserting literal
  // sits at c[0] — propagate() never swaps a true c[0] away).
  std::vector<std::pair<float, int>> cand;
  for (int ci = 0; ci < static_cast<int>(clauses_.size()); ++ci) {
    const std::vector<int>& c = clauses_[static_cast<size_t>(ci)];
    if (!meta_[static_cast<size_t>(ci)].learned || c.size() <= 2) continue;
    int v0 = c[0] >> 1;
    if (reason_[static_cast<size_t>(v0)] == ci && lit_value(c[0]) == 1)
      continue;
    cand.push_back({meta_[static_cast<size_t>(ci)].act, ci});
  }
  // Lowest activity first; index breaks ties, so older lemmas go first
  // and the pass is deterministic.
  std::sort(cand.begin(), cand.end());
  for (size_t i = 0; i < cand.size() / 2; ++i) {
    int ci = cand[i].second;
    detach(ci);
    clauses_[static_cast<size_t>(ci)].clear();
    clauses_[static_cast<size_t>(ci)].shrink_to_fit();
    meta_[static_cast<size_t>(ci)].learned = false;
    --live_learned_;
  }
  ++stats_.db_reductions;
}

int Solver::add_var() {
  int v = num_vars_++;
  value_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(-1);
  activity_.push_back(0.0);
  polarity_.push_back(0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v + 1;
}

bool Solver::add_clause(const std::vector<int>& dimacs_lits) {
  backtrack(0);
  std::vector<int> lits;
  lits.reserve(dimacs_lits.size());
  for (int d : dimacs_lits) {
    if (d == 0 || std::abs(d) > num_vars_)
      throw std::invalid_argument("sat: add_clause literal " +
                                  std::to_string(d) + " out of range");
    lits.push_back(internal(d));
  }
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (size_t i = 0; i + 1 < lits.size(); ++i)
    if ((lits[i] ^ 1) == lits[i + 1]) return true;  // tautology
  // Simplify against the root trail (everything assigned after
  // backtrack(0) is permanent): drop falsified literals, skip satisfied
  // clauses — this keeps the watch invariant without re-propagating.
  std::vector<int> kept;
  kept.reserve(lits.size());
  for (int l : lits) {
    int v = lit_value(l);
    if (v == 1) return true;  // already satisfied at the root
    if (v == -1) kept.push_back(l);
  }
  if (kept.empty()) {
    ok_ = false;
    return false;
  }
  if (kept.size() == 1) {
    if (!enqueue(kept[0], -1) || propagate() >= 0) {
      ok_ = false;
      return false;
    }
    return true;
  }
  clauses_.push_back(std::move(kept));
  meta_.push_back({});
  attach(static_cast<int>(clauses_.size()) - 1);
  return true;
}

bool Solver::enqueue(int lit, int reason) {
  int val = lit_value(lit);
  if (val == 0) return false;  // already false: conflict
  if (val == 1) return true;   // already true
  int v = lit >> 1;
  value_[static_cast<size_t>(v)] = static_cast<int8_t>((lit & 1) ^ 1);
  level_[static_cast<size_t>(v)] =
      static_cast<int>(trail_lim_.size());
  reason_[static_cast<size_t>(v)] = reason;
  trail_.push_back(lit);
  return true;
}

void Solver::check_cancel() const {
  if (opt_.cancel && opt_.cancel->cancelled()) throw CancelledError();
}

bool Solver::deadline_expired() {
  if (opt_.deadline_ns == 0) return false;
  if (--deadline_countdown_ > 0) return false;
  deadline_countdown_ = 256;
  return steady_now_ns() >= opt_.deadline_ns;
}

int Solver::propagate() {
  check_cancel();  // cooperative cancellation in the propagate loop
  while (qhead_ < trail_.size()) {
    int p = trail_[qhead_++];  // p is now true; literal p^1 is false
    int false_lit = p ^ 1;
    std::vector<int>& watch = watches_[static_cast<size_t>(false_lit)];
    size_t keep = 0;
    for (size_t i = 0; i < watch.size(); ++i) {
      int ci = watch[i];
      std::vector<int>& c = clauses_[static_cast<size_t>(ci)];
      ++stats_.propagations;
      // Normalise: the falsified watch sits at c[1].
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      if (lit_value(c[0]) == 1) {  // satisfied; keep the watch
        watch[keep++] = ci;
        continue;
      }
      // Find a new literal to watch.
      bool moved = false;
      for (size_t k = 2; k < c.size(); ++k) {
        if (lit_value(c[k]) != 0) {
          std::swap(c[1], c[k]);
          watches_[static_cast<size_t>(c[1])].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflict on c[0].
      watch[keep++] = ci;
      if (!enqueue(c[0], ci)) {
        // Conflict: restore the untouched tail of the watch list.
        for (size_t k = i + 1; k < watch.size(); ++k) watch[keep++] = watch[k];
        watch.resize(keep);
        qhead_ = trail_.size();
        return ci;
      }
    }
    watch.resize(keep);
  }
  return -1;
}

void Solver::bump(int v) {
  activity_[static_cast<size_t>(v)] += var_inc_;
  if (activity_[static_cast<size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Scaling can round distinct activities to equal ones, which hands
    // the order to the index tie-break: re-heapify on the new keys.
    for (size_t i = heap_.size() / 2; i-- > 0;) heap_down(i);
    return;
  }
  int pos = heap_pos_[static_cast<size_t>(v)];
  if (pos >= 0) heap_up(static_cast<size_t>(pos));
}

bool Solver::heap_before(int a, int b) const {
  double x = activity_[static_cast<size_t>(a)];
  double y = activity_[static_cast<size_t>(b)];
  return x > y || (x == y && a < b);
}

void Solver::heap_up(size_t pos) {
  int v = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!heap_before(v, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[static_cast<size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(pos);
}

void Solver::heap_down(size_t pos) {
  int v = heap_[pos];
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_before(heap_[child + 1], heap_[child]))
      ++child;
    if (!heap_before(heap_[child], v)) break;
    heap_[pos] = heap_[child];
    heap_pos_[static_cast<size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = child;
  }
  heap_[pos] = v;
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(pos);
}

void Solver::heap_insert(int v) {
  if (heap_pos_[static_cast<size_t>(v)] >= 0) return;
  heap_.push_back(v);
  heap_up(heap_.size() - 1);
}

int Solver::heap_pop() {
  int top = heap_.front();
  heap_pos_[static_cast<size_t>(top)] = -1;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_down(0);
  return top;
}

void Solver::decay() {
  var_inc_ /= opt_.var_decay;
  cla_inc_ /= 0.999;  // clause-activity decay (MiniSat's clause_decay)
}

void Solver::analyze(int confl, std::vector<int>* learnt, int* bt_level) {
  learnt->clear();
  learnt->push_back(0);  // slot for the asserting literal
  int counter = 0;
  int p = -1;
  size_t index = trail_.size();
  const int current_level = static_cast<int>(trail_lim_.size());
  std::vector<int> to_clear;

  do {
    if (meta_[static_cast<size_t>(confl)].learned) bump_clause(confl);
    const std::vector<int>& c = clauses_[static_cast<size_t>(confl)];
    for (int q : c) {
      if (q == p) continue;
      int v = q >> 1;
      if (seen_[static_cast<size_t>(v)] || level_[static_cast<size_t>(v)] == 0)
        continue;
      seen_[static_cast<size_t>(v)] = 1;
      to_clear.push_back(v);
      bump(v);
      if (level_[static_cast<size_t>(v)] >= current_level)
        ++counter;
      else
        learnt->push_back(q);
    }
    // Walk the trail back to the next marked literal.
    while (!seen_[static_cast<size_t>(trail_[--index] >> 1)]) {}
    p = trail_[index];
    confl = reason_[static_cast<size_t>(p >> 1)];
    seen_[static_cast<size_t>(p >> 1)] = 0;
    --counter;
  } while (counter > 0);
  (*learnt)[0] = p ^ 1;

  // Backtrack level: highest level among the non-asserting literals;
  // keep that literal at index 1 so it becomes the second watch.
  *bt_level = 0;
  if (learnt->size() > 1) {
    size_t max_i = 1;
    for (size_t i = 2; i < learnt->size(); ++i)
      if (level_[static_cast<size_t>((*learnt)[i] >> 1)] >
          level_[static_cast<size_t>((*learnt)[max_i] >> 1)])
        max_i = i;
    std::swap((*learnt)[1], (*learnt)[max_i]);
    *bt_level = level_[static_cast<size_t>((*learnt)[1] >> 1)];
  }
  for (int v : to_clear) seen_[static_cast<size_t>(v)] = 0;
}

void Solver::backtrack(int target) {
  if (static_cast<int>(trail_lim_.size()) <= target) return;
  size_t floor = static_cast<size_t>(trail_lim_[static_cast<size_t>(target)]);
  for (size_t i = trail_.size(); i > floor; --i) {
    int lit = trail_[i - 1];
    int v = lit >> 1;
    polarity_[static_cast<size_t>(v)] =
        static_cast<uint8_t>(value_[static_cast<size_t>(v)]);
    value_[static_cast<size_t>(v)] = -1;
    reason_[static_cast<size_t>(v)] = -1;
    heap_insert(v);
  }
  trail_.resize(floor);
  trail_lim_.resize(static_cast<size_t>(target));
  qhead_ = trail_.size();
}

int Solver::pick_branch() {
  check_cancel();  // cooperative cancellation in the decide loop
  // Every unassigned variable is in the heap (backtrack re-inserts what
  // it unassigns); assigned ones popped here return on backtrack.
  while (!heap_.empty()) {
    int v = heap_pop();
    if (value_[static_cast<size_t>(v)] == -1)
      return 2 * v + (polarity_[static_cast<size_t>(v)] ? 0 : 1);
  }
  return -1;
}

SolveStatus Solver::solve() { return solve({}); }

SolveStatus Solver::solve(const std::vector<int>& assumptions) {
  PICOLA_OBS_SPAN(span, "sat/solve");
  backtrack(0);
  conflict_floor_ = stats_.conflicts;
  deadline_countdown_ = 0;
  if (!ok_) return finish(SolveStatus::kUnsat);
  assumptions_.clear();
  assumptions_.reserve(assumptions.size());
  for (int d : assumptions) {
    if (d == 0 || std::abs(d) > num_vars_)
      throw std::invalid_argument("sat: assumption literal " +
                                  std::to_string(d) + " out of range");
    assumptions_.push_back(internal(d));
  }
  return search();
}

SolveStatus Solver::search() {
  long conflicts_since_restart = 0;
  long restart_limit = static_cast<long>(opt_.restart_base) * luby(0);
  std::vector<int> learnt;

  while (true) {
    int confl = propagate();
    if (confl >= 0) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        ok_ = false;  // root-level conflict: unsat regardless of assumptions
        return finish(SolveStatus::kUnsat);
      }
      int bt_level = 0;
      analyze(confl, &learnt, &bt_level);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        if (!enqueue(learnt[0], -1)) {
          ok_ = false;
          return finish(SolveStatus::kUnsat);
        }
      } else {
        clauses_.push_back(learnt);
        meta_.push_back({static_cast<float>(cla_inc_), true});
        int ci = static_cast<int>(clauses_.size()) - 1;
        attach(ci);
        ++stats_.learned_clauses;
        stats_.learned_literals += static_cast<long>(learnt.size());
        ++live_learned_;
        enqueue(learnt[0], ci);
        if (live_learned_ >= reduce_limit_) {
          reduce_db();
          reduce_limit_ += reduce_limit_ / 10;  // geometric headroom growth
        }
      }
      decay();
      if (opt_.max_conflicts > 0 &&
          stats_.conflicts - conflict_floor_ >= opt_.max_conflicts)
        return finish(SolveStatus::kUnknown);
      if (deadline_expired()) return finish(SolveStatus::kUnknown);
    } else {
      if (conflicts_since_restart >= restart_limit) {
        ++stats_.restarts;
        conflicts_since_restart = 0;
        restart_limit =
            static_cast<long>(opt_.restart_base) * luby(stats_.restarts);
        backtrack(0);
        continue;
      }
      // Assumptions go in as the first decisions; a restart or backjump
      // below them lands here again and re-establishes the missing ones.
      if (trail_lim_.size() < assumptions_.size()) {
        int p = assumptions_[trail_lim_.size()];
        int v = lit_value(p);
        if (v == 0)  // falsified by the formula: unsat under assumptions
          return finish(SolveStatus::kUnsat);
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        if (v == -1) enqueue(p, -1);
        continue;
      }
      int lit = pick_branch();
      if (lit < 0) return finish(SolveStatus::kSat);
      ++stats_.decisions;
      // Assign before the deadline check: the popped variable must be on
      // the trail, so the next call's backtrack returns it to the heap.
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      enqueue(lit, -1);
      if (deadline_expired()) return finish(SolveStatus::kUnknown);
    }
  }
}

SolveStatus Solver::finish(SolveStatus s) {
  // One bulk update per solve keeps the hot loops free of obs branches;
  // deltas since the previous finish, so incremental re-solves on the
  // same Solver never double-count.
  PICOLA_OBS_COUNT("sat/decisions", stats_.decisions - reported_.decisions);
  PICOLA_OBS_COUNT("sat/propagations",
                   stats_.propagations - reported_.propagations);
  PICOLA_OBS_COUNT("sat/conflicts", stats_.conflicts - reported_.conflicts);
  PICOLA_OBS_COUNT("sat/restarts", stats_.restarts - reported_.restarts);
  PICOLA_OBS_COUNT("sat/learned_clauses",
                   stats_.learned_clauses - reported_.learned_clauses);
  PICOLA_OBS_COUNT("sat/db_reductions",
                   stats_.db_reductions - reported_.db_reductions);
  reported_ = stats_;
  return s;
}

bool Solver::model_value(int var) const {
  if (var < 1 || var > num_vars_) return false;
  return value_[static_cast<size_t>(var - 1)] == 1;
}

}  // namespace picola::sat
