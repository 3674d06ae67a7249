#pragma once
// The traced run's outside-in view of the layers: spans recorded around
// calls into each module's public functions, kept in memory and written
// out when the benchmark ends.  Nothing inside the program is
// instrumented.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  int64_t request = -1;  ///< problem index the span works for
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Nested spans of one thread, in memory.
class Tracer {
 public:
  uint32_t begin(const char* name, int64_t request);
  void end(uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover, in ms.
  std::map<std::string, double> self_ms() const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int64_t request)
      : t_(t), id_(t.begin(name, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  uint32_t id_;
};

uint64_t now_ns();

/// Figures of the single-threaded in-process replay.
struct ReplayFigures {
  std::vector<double> con_parse_us, kiss_parse_ms, derive_ms;
  std::vector<double> canonicalize_us, cache_probe_us;
  std::vector<double> encode_ms, score_ms, constraint_us, anneal_ms;
  double picola_encode_ms = 0;  ///< summed over picola slots
  double picola_eval_ms = 0;
  long picola_slots = 0;
  long classify_calls = 0;
  long constraints_scored = 0;
  long single_cube = 0;
  long jobs = 0;
  long sat_slots = 0;
  long sat_budget_exhausted = 0;
  long anneal_slots = 0;
  long anneal_moves = 0;
  long margin_cubes = 0;
  /// Replayed winners that differ from the reference: the replay then
  /// does not do the server's work, and its figures are not trusted.
  long mismatches = 0;
};

/// Replay `which` problems of `w` through the public functions the
/// server calls, one span per layer boundary: problem_io.parse (wrapping
/// constraints.derive for KISS2), service.canonicalize, portfolio.slot
/// (wrapping core.encode / sat.encode / encoders.anneal, then eval.score,
/// one evaluate_constraints call), and finally service.cache_probe on a
/// ResultCache that holds every replayed result.  constraint_cube_count
/// is timed per constraint in a separate pass after each slot.
ReplayFigures replay(const Workload& w, const std::vector<size_t>& which,
                     const Reference& ref, Tracer* tracer);

/// Time `reps` constructions of an EncodingService recovering
/// `cache_dir` (persist.recover spans); returns the entries recovered.
size_t replay_recovery(const std::string& cache_dir, int reps,
                       Tracer* tracer, std::vector<double>* recover_ms);

}  // namespace perfbench
