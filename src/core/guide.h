#pragma once
// Guide constraints (paper §3.2): when a constraint L becomes infeasible,
// the group constraint on its (potential) intruder set I is added instead.
// Satisfying the guide forces the intruders onto a face of super(L), which
// by Theorem I buys an implementation of L with
// dim[super(L)] - dim[super(I)] cubes.

#include <optional>

#include "constraints/constraint_matrix.h"

namespace picola {

/// Weight of a guide relative to its origin's weight.
inline constexpr double kGuideWeightFactor = 0.75;

/// Guide-constraint construction policy.
struct GuideOptions {
  /// Allow guides of guides when a guide itself becomes infeasible.
  bool recursive = true;
};

/// Build the guide constraint of infeasible constraint `k` from the current
/// matrix state (members = potential intruders).  Returns nullopt when the
/// intruder set is trivial (< 2 symbols) or covers every symbol.
std::optional<FaceConstraint> make_guide(const ConstraintMatrix& m, int k,
                                         const GuideOptions& opt = {});

}  // namespace picola
