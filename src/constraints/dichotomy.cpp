#include "constraints/dichotomy.h"

namespace picola {

std::vector<SeedDichotomy> seed_dichotomies(const ConstraintSet& cs) {
  std::vector<SeedDichotomy> out;
  for (int k = 0; k < cs.size(); ++k) {
    for (int j = 0; j < cs.num_symbols; ++j) {
      if (!cs.constraints[static_cast<size_t>(k)].contains(j))
        out.push_back({k, j});
    }
  }
  return out;
}

bool dichotomy_satisfied(const FaceConstraint& c, int outsider,
                         const Encoding& enc) {
  for (int b = 0; b < enc.num_bits; ++b) {
    int v = enc.bit(c.members[0], b);
    bool uniform = true;
    for (int m : c.members) {
      if (enc.bit(m, b) != v) {
        uniform = false;
        break;
      }
    }
    if (uniform && enc.bit(outsider, b) != v) return true;
  }
  return false;
}

bool constraint_satisfied(const FaceConstraint& c, const Encoding& enc) {
  CodeCube super = enc.supercube(c.members);
  for (int j = 0; j < enc.num_symbols; ++j)
    if (super.contains(enc.code(j)) && !c.contains(j)) return false;
  return true;
}

std::vector<int> intruders(const FaceConstraint& c, const Encoding& enc) {
  CodeCube super = enc.supercube(c.members);
  std::vector<int> in;
  for (int j = 0; j < enc.num_symbols; ++j) {
    if (c.contains(j)) continue;
    if (super.contains(enc.code(j))) in.push_back(j);
  }
  return in;
}

int count_satisfied_constraints(const ConstraintSet& cs, const Encoding& enc) {
  int n = 0;
  for (const auto& c : cs.constraints)
    if (constraint_satisfied(c, enc)) ++n;
  return n;
}

long count_satisfied_dichotomies(const ConstraintSet& cs, const Encoding& enc) {
  long n = 0;
  for (const auto& c : cs.constraints) {
    for (int j = 0; j < cs.num_symbols; ++j) {
      if (c.contains(j)) continue;
      if (dichotomy_satisfied(c, j, enc)) ++n;
    }
  }
  return n;
}

}  // namespace picola
