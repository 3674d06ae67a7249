// Recursive complementation with Shannon expansion and unate shortcuts.

#include "espresso/espresso.h"

namespace picola::esp {
namespace {

using detail::part_cube;
using detail::select_split_var;

Cover complement_rec(const Cover& F) {
  const CubeSpace& s = F.space();
  if (F.empty()) {
    Cover r(s);
    r.add(Cube::full(s));
    return r;
  }
  for (const Cube& c : F.cubes())
    if (c.is_full(s)) return Cover(s);

  if (F.size() == 1) return complement_cube(F[0], s);

  int v = select_split_var(F);
  if (v < 0) return Cover(s);  // some cube is full (handled above, defensive)

  Cover result(s);
  for (int p = 0; p < s.parts(v); ++p) {
    Cube pc = part_cube(s, v, p);
    Cover cf = cofactor(F, pc);
    cf.remove_contained();
    Cover branch = complement_rec(cf);
    for (Cube& b : branch.cubes()) {
      Cube merged = b.intersect(pc);
      if (!merged.is_empty(s)) result.add(std::move(merged));
    }
  }
  result.remove_contained();
  return result;
}

}  // namespace

Cover complement_cube(const Cube& c, const CubeSpace& s) {
  Cover r(s);
  for (int v = 0; v < s.num_vars(); ++v) {
    if (c.var_full(s, v)) continue;
    // Full in every other variable; the complement of c's literal in v.
    Cube k = Cube::full(s);
    std::span<uint64_t> w = k.words();
    for (const CubeSpace::WordMask& e : s.var_words(v))
      w[static_cast<size_t>(e.word)] ^= c.word(e.word) & e.mask;
    if (!k.is_empty(s)) r.add(std::move(k));
  }
  return r;
}

Cover complement(const Cover& F) {
  Cover f = F;
  f.remove_empty();
  f.remove_contained();
  return complement_rec(f);
}

Cover complement_fd(const Cover& F, const Cover& D) {
  Cover fd = F;
  fd.append(D);
  return complement(fd);
}

}  // namespace picola::esp
