#pragma once
// ENC-like baseline: maximise satisfied seed dichotomies, optionally with
// logic minimisation in the loop.
//
// Reimplementation of the objective the paper ascribes to ENC
// (Saldanha et al., "Satisfaction of Input and Output Encoding
// Constraints"): a column-based greedy that counts raw satisfied seed
// dichotomies (no constraint weighting, no infeasibility analysis), then —
// in the `minimize_in_loop` mode that gives ENC its characteristic runtime
// — a pairwise code-swap refinement whose acceptance test is the full
// espresso cube-count evaluation of the paper's objective.

#include "constraints/face_constraint.h"
#include "encoders/encoding.h"

namespace picola {

struct EncLikeOptions {
  int num_bits = 0;  ///< 0 = minimum length
  /// Refine with espresso-evaluated pairwise swaps (slow; the point of the
  /// paper's runtime comparison).
  bool minimize_in_loop = true;
};

struct EncLikeResult {
  Encoding encoding;
  long espresso_calls = 0;  ///< minimisations spent in the refinement loop
};

EncLikeResult enc_like_encode(const ConstraintSet& cs,
                              const EncLikeOptions& opt = {});

}  // namespace picola
