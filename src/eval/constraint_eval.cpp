#include "eval/constraint_eval.h"

#include <optional>

#include "constraints/dichotomy.h"
#include "obs/obs.h"

namespace picola {

namespace {

Cube code_minterm(const CubeSpace& s, uint32_t code, int num_bits) {
  Cube c = Cube::full(s);
  for (int b = 0; b < num_bits; ++b)
    c.set_binary(s, b, static_cast<int>((code >> b) & 1u));
  return c;
}

/// An encoding's codes as minterm cubes: every symbol's code, and the
/// unused codes as one dc-set cover shared by all constraints.
struct CodeMinterms {
  explicit CodeMinterms(const Encoding& enc)
      : space(CubeSpace::binary(enc.num_bits)), unused(space) {
    symbol.reserve(enc.codes.size());
    for (uint32_t code : enc.codes)
      symbol.push_back(code_minterm(space, code, enc.num_bits));
    for (uint32_t u : enc.unused_codes())
      unused.add(code_minterm(space, u, enc.num_bits));
  }

  CubeSpace space;
  std::vector<Cube> symbol;
  Cover unused;
};

/// ESPRESSO on one constraint: the members' codes are the on-set, the
/// other symbols' codes the off-set, the unused codes don't-cares.
Cover espresso_cover(const FaceConstraint& c, const CodeMinterms& k) {
  Cover on(k.space);
  std::vector<bool> member(k.symbol.size(), false);
  for (int m : c.members) {
    on.add(k.symbol[static_cast<size_t>(m)]);
    member[static_cast<size_t>(m)] = true;
  }
  Cover off(k.space);
  for (size_t j = 0; j < k.symbol.size(); ++j)
    if (!member[j]) off.add(k.symbol[j]);
  return esp::minimize(on, k.unused, off).cover;
}

/// Paper §2: a constraint whose members' code supercube holds no other
/// symbol's code is implemented by that one cube, and a constraint with
/// such an intruder needs at least two.
bool single_cube(const FaceConstraint& c, const Encoding& enc) {
  return !c.members.empty() && constraint_satisfied(c, enc);
}

}  // namespace

Cover constraint_cover(const FaceConstraint& c, const Encoding& enc) {
  return espresso_cover(c, CodeMinterms(enc));
}

int constraint_cube_count(const FaceConstraint& c, const Encoding& enc) {
  return single_cube(c, enc) ? 1 : constraint_cover(c, enc).size();
}

ConstraintEvalResult evaluate_constraints(const ConstraintSet& cs,
                                          const Encoding& enc) {
  PICOLA_OBS_SPAN(span_eval, "espresso/eval");
  ConstraintEvalResult r;
  r.per_constraint.reserve(static_cast<size_t>(cs.size()));
  std::optional<CodeMinterms> minterms;  // built on the first fallback
  int fallbacks = 0;
  for (const auto& c : cs.constraints) {
    int n = 1;
    if (!single_cube(c, enc)) {
      if (!minterms) minterms.emplace(enc);
      n = espresso_cover(c, *minterms).size();
      ++fallbacks;
    }
    r.per_constraint.push_back(n);
    r.total_cubes += n;
    if (n == 1) ++r.satisfied;
  }
  PICOLA_OBS_COUNT("eval/constraints", cs.size());
  PICOLA_OBS_COUNT("eval/espresso_fallbacks", fallbacks);
  return r;
}

}  // namespace picola
