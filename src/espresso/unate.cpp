#include <cassert>

#include "espresso/espresso.h"

namespace picola::esp {

Cover cofactor(const Cover& F, const Cube& c) {
  Cover r(F.space());
  r.reserve(F.size());
  for (const Cube& f : F.cubes()) {
    auto cf = f.cofactor(c, F.space());
    if (cf) r.add(std::move(*cf));
  }
  return r;
}

bool cover_contains_cube(const Cover& F, const Cube& c) {
  return is_tautology(cofactor(F, c));
}

bool cover_contains_cover(const Cover& F, const Cover& G) {
  for (const Cube& g : G.cubes())
    if (!cover_contains_cube(F, g)) return false;
  return true;
}

bool disjoint(const Cover& F, const Cover& R) {
  const CubeSpace& s = F.space();
  for (const Cube& f : F.cubes())
    for (const Cube& r : R.cubes())
      if (f.intersects(r, s)) return false;
  return true;
}

namespace detail {

int select_split_var(const Cover& F) {
  const CubeSpace& s = F.space();
  int best = -1;
  int best_count = 0;
  for (int v = 0; v < s.num_vars(); ++v) {
    int count = 0;
    for (const Cube& c : F.cubes())
      if (!c.var_full(s, v)) ++count;
    if (count > best_count) {
      best_count = count;
      best = v;
    }
  }
  return best;
}

Cube nonfull_literal_union(const Cover& F, int var) {
  const CubeSpace& s = F.space();
  Cube u = Cube::zeros(s);
  std::span<uint64_t> w = u.words();
  for (const Cube& c : F.cubes()) {
    if (c.var_full(s, var)) continue;
    for (const CubeSpace::WordMask& e : s.var_words(var))
      w[static_cast<size_t>(e.word)] |= c.word(e.word) & e.mask;
  }
  return u;
}

Cube part_cube(const CubeSpace& s, int var, int p) {
  Cube c = Cube::full(s);
  c.clear_var(s, var);
  c.set(s, var, p);
  return c;
}

}  // namespace detail
}  // namespace picola::esp
