#include "check/reference_eval.h"

namespace picola::check {

namespace {

Cube code_minterm(const CubeSpace& s, uint32_t code, int num_bits) {
  Cube c = Cube::full(s);
  for (int b = 0; b < num_bits; ++b)
    c.set_binary(s, b, static_cast<int>((code >> b) & 1u));
  return c;
}

}  // namespace

Cover reference_constraint_cover(const FaceConstraint& c,
                                 const Encoding& enc) {
  CubeSpace s = CubeSpace::binary(enc.num_bits);
  Cover onset(s);
  for (int m : c.members)
    onset.add(code_minterm(s, enc.code(m), enc.num_bits));
  Cover dc(s);
  for (uint32_t u : enc.unused_codes())
    dc.add(code_minterm(s, u, enc.num_bits));
  return esp::minimize_cover(onset, dc);
}

std::string eval_mismatch(const ConstraintSet& cs, const Encoding& enc) {
  const ConstraintEvalResult kernel = evaluate_constraints(cs, enc);
  if (kernel.per_constraint.size() != cs.constraints.size())
    return "kernel scored " + std::to_string(kernel.per_constraint.size()) +
           " of " + std::to_string(cs.size()) + " constraints";
  int total = 0, satisfied = 0;
  for (int k = 0; k < cs.size(); ++k) {
    const FaceConstraint& c = cs.constraints[static_cast<size_t>(k)];
    const Cover ref = reference_constraint_cover(c, enc);
    const int got = kernel.per_constraint[static_cast<size_t>(k)];
    if (got != ref.size())
      return "constraint " + std::to_string(k) + ": kernel scores " +
             std::to_string(got) + " cubes, reference " +
             std::to_string(ref.size());
    if (constraint_cover(c, enc).cubes() != ref.cubes())
      return "constraint " + std::to_string(k) + ": kernel cover " +
             constraint_cover(c, enc).to_string() + " differs from " +
             ref.to_string();
    total += ref.size();
    if (ref.size() == 1) ++satisfied;
  }
  if (kernel.total_cubes != total || kernel.satisfied != satisfied)
    return "kernel totals " + std::to_string(kernel.total_cubes) +
           " cubes / " + std::to_string(kernel.satisfied) +
           " satisfied, reference " + std::to_string(total) + " / " +
           std::to_string(satisfied);
  return "";
}

}  // namespace picola::check
