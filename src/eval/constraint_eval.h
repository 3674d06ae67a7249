#pragma once
// Evaluation of an encoding against a constraint set, using the paper's
// objective: each face constraint defines a Boolean function over the code
// bits whose on-set is the member codes, off-set the non-member codes and
// dc-set the unused codes; the cost of the constraint is the number of
// product terms of a minimised SOP of that function (footnote 2 of the
// paper).  The reported "cubes" value of Table I is the sum over all
// constraints.
//
// A constraint with no intruder (paper §2) costs exactly one cube and is
// scored without ESPRESSO; only the others are minimised, with the
// non-member codes handed to ESPRESSO as its off-set.  Every count and
// cover stays what a plain ESPRESSO run gives (docs/ALGORITHM.md,
// "Scoring"); check/reference_eval.h keeps that run as the test oracle.
// Precondition: a valid encoding (distinct codes).

#include <vector>

#include "constraints/face_constraint.h"
#include "encoders/encoding.h"
#include "espresso/espresso.h"

namespace picola {

/// Minimised SOP cube count of one encoded constraint.
int constraint_cube_count(const FaceConstraint& c, const Encoding& enc);

/// Per-constraint cube counts plus their sum (the paper's Table I metric).
struct ConstraintEvalResult {
  std::vector<int> per_constraint;
  int total_cubes = 0;
  int satisfied = 0;  ///< constraints implemented by a single cube
};

ConstraintEvalResult evaluate_constraints(const ConstraintSet& cs,
                                          const Encoding& enc);

/// The minimised SOP cover itself (for inspection / examples).  Always
/// runs ESPRESSO, also for an intruder-free constraint.
Cover constraint_cover(const FaceConstraint& c, const Encoding& enc);

}  // namespace picola
