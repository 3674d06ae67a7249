#pragma once
// The reference cost evaluator: footnote 2 of the paper, computed the
// plain way.  Every constraint gets one full ESPRESSO run on its members'
// code minterms with every unused code as a don't-care; ESPRESSO rebuilds
// the off-set by complementing both, and there is no single-cube
// shortcut.  This was the production evaluator before the cost kernel
// (eval/constraint_eval.h); it is kept, slow on purpose, only as the
// differential oracle that tests and tools/picola_fuzz hold the kernel to.

#include <string>

#include "eval/constraint_eval.h"

namespace picola::check {

/// The reference minimised cover of one constraint; its size is the
/// constraint's reference cube count.
Cover reference_constraint_cover(const FaceConstraint& c, const Encoding& enc);

/// Kernel vs reference on one encoding: evaluate_constraints' counts,
/// total and satisfied count, and constraint_cover for every constraint.
/// "" when everything agrees, else a description of the first mismatch.
std::string eval_mismatch(const ConstraintSet& cs, const Encoding& enc);

}  // namespace picola::check
