#pragma once
// Simulated-annealing encoder: searches the space of minimum-length code
// assignments by swapping codes (and moving symbols onto unused codes),
// optimising the weighted satisfied-seed-dichotomy count.  NOVA itself
// shipped annealing-based variants; this provides an additional strong
// baseline for the benches and a stress reference for PICOLA.

#include <cstdint>
#include <memory>

#include "constraints/face_constraint.h"
#include "encoders/encoding.h"
#include "encoders/restart.h"

namespace picola {

struct AnnealingOptions {
  int num_bits = 0;        ///< 0 = minimum length
  uint64_t seed = 1;       ///< deterministic PRNG seed
  /// Geometric cooling factor; the temperature falls from 2.0 to 0.01
  /// (relative to the constraint weights).
  double cooling = 0.95;
  int moves_per_temp = 0;  ///< 0 = 8 * n * nv moves per temperature step
  /// Cooperative cancellation, checked in the flip loop (every 64 moves);
  /// a fired token aborts the run with CancelledError, same contract as
  /// PicolaOptions::cancel.  Never changes a completed run's result.
  std::shared_ptr<const CancelToken> cancel;
};

struct AnnealingResult {
  Encoding encoding;
  double best_score = 0;  ///< weighted satisfied dichotomies of the result
  long moves_tried = 0;
  long moves_accepted = 0;
};

/// Throws std::invalid_argument for a num_bits Encoding::resolve_bits
/// refuses.  Memory is O(n) at any code length up to 31 bits.
AnnealingResult annealing_encode(const ConstraintSet& cs,
                                 const AnnealingOptions& opt = {});

/// The objective annealing maximises: sum of constraint weights over
/// satisfied seed dichotomies.
double weighted_dichotomy_score(const ConstraintSet& cs, const Encoding& enc);

}  // namespace picola
