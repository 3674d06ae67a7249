#pragma once
// Deterministic multi-start (restart) support shared by the sequential
// picola_encode_best and the concurrent EncodingService (src/service).
//
// A multi-start run of R restarts is a *plan*: restart 0 keeps the
// caller's tie-breaking seed (0 = the deterministic lowest-index rule),
// restart r > 0 gets the seed `base + r`.  Each restart is an independent
// computation, so the plan can be executed sequentially or fanned out to a
// thread pool; the winner is reduced with `RestartWinner` — lowest cost
// first, lowest restart index on ties — which makes the parallel and
// sequential executions pick bit-identical results.
//
// A plan can be abandoned early through a CancelToken: the network
// server's per-request deadlines (src/net) cancel the token, every
// restart — sequential (picola_encode_best) or fanned out (the service's
// restart tasks) — observes it at the next column boundary and aborts
// with CancelledError.  Cancellation is cooperative and monotone: once
// cancelled, a token stays cancelled.
//
// Restarts differ only through their tie-breaks, so a restart 0 that
// never meets a tie answers the whole plan (docs/ALGORITHM.md, "Tie-free
// restarts").  A run reports its first tie through a TieHook; the
// service posts restarts 1..R-1 from it, and skips them when it never
// fires.

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>

namespace picola {

/// Tie-breaking seed of restart `restart` (0-based) of a plan whose first
/// restart uses `base_seed`.  restart 0 returns `base_seed` unchanged.
uint64_t restart_seed(uint64_t base_seed, int restart);

/// Running reduction over (cost, restart-index) pairs.  Feeding the
/// restarts in any order yields the same winner as feeding them in
/// sequential order, because the sequential loop keeps the first restart
/// that *strictly* improves the cost — i.e. the minimum of
/// (cost, restart).
struct RestartWinner {
  int restart = -1;
  long cost = 0;

  /// True when (cost, restart) beats the current winner; updates it.
  bool offer(long candidate_cost, int candidate_restart);
};

/// Cooperative cancellation flag shared by every restart of one plan.
/// cancel() may be called from any thread (it is async-signal-safe);
/// readers poll cancelled() at column boundaries.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// Called by a run the first time it meets a tie between candidate
/// flips: from then on a restart with another seed may return other
/// codes.  It runs at most once per run, on the running thread, and must
/// not throw.  Like the CancelToken it is request-lifetime state that
/// never changes the run's result, so canonicalize() (service/job.h)
/// strips it and no fingerprint or persist record sees it.
using TieHook = std::function<void()>;

/// Raised out of picola_encode / picola_encode_best when the plan's
/// CancelToken fires mid-run.  A cancelled run produced no encoding; the
/// service never caches it.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("encoding cancelled") {}
};

/// Throw CancelledError when `token` is set; no-op on nullptr.
inline void throw_if_cancelled(const CancelToken* token) {
  if (token && token->cancelled()) throw CancelledError();
}

}  // namespace picola
