#include "core/guide.h"

namespace picola {

std::optional<FaceConstraint> make_guide(const ConstraintMatrix& m, int k,
                                         const GuideOptions& opt) {
  const FaceConstraint& origin = m.constraint(k);
  if (origin.is_guide && !opt.recursive) return std::nullopt;
  std::vector<int> intr = m.potential_intruders(k);
  if (static_cast<int>(intr.size()) < 2) return std::nullopt;
  if (static_cast<int>(intr.size()) >= m.num_symbols()) return std::nullopt;
  FaceConstraint g;
  g.members = std::move(intr);  // potential_intruders() returns sorted ids
  g.weight = origin.weight * kGuideWeightFactor;
  g.is_guide = true;
  g.origin = origin.is_guide ? origin.origin : k;
  return g;
}

}  // namespace picola
