// REDUCE: replace each cube by the smallest cube covering the minterms that
// only it covers (relative to the rest of the cover plus the dc-set) — the
// classic "supercube of the complement of the cofactor" computation — and
// LASTGASP, which uses the same primitive with independent reductions.

#include <algorithm>

#include "espresso/espresso.h"

namespace picola::esp {

Cube reduce_cube_against(const Cube& c, const Cover& rest) {
  const CubeSpace& s = rest.space();
  Cover cf = cofactor(rest, c);
  cf.remove_contained();
  Cover comp = complement(cf);
  if (comp.empty()) return Cube::zeros(s);  // fully covered by the rest
  Cube sup = comp[0];
  for (int k = 1; k < comp.size(); ++k) sup = sup.supercube(comp[k]);
  return c.intersect(sup);
}

Cover reduce(Cover F, const Cover& D) {
  const CubeSpace& s = F.space();
  // Reduce the biggest cubes first; each reduction is performed against the
  // current (partially reduced) cover, as in ESPRESSO-II.
  F.sort_by_size_desc(s);
  Cover rest(s);  // rebuilt for every cube, in one buffer
  rest.reserve(F.size() + D.size());
  for (int i = 0; i < F.size(); ++i) {
    rest.clear();
    for (int j = 0; j < F.size(); ++j)
      if (j != i) rest.add(F[j]);
    rest.append(D);
    F[i] = reduce_cube_against(F[i], rest);
  }
  F.remove_empty();
  return F;
}

Cover last_gasp(Cover F, const Cover& D, const Cover& R) {
  const CubeSpace& s = F.space();
  // Independent maximal reduction: every cube shrinks against the ORIGINAL
  // rest of the cover, so no reduction order effects.
  Cover reduced(s);
  reduced.reserve(F.size());
  Cover rest(s);
  rest.reserve(F.size() + D.size());
  for (int i = 0; i < F.size(); ++i) {
    rest.clear();
    for (int j = 0; j < F.size(); ++j)
      if (j != i) rest.add(F[j]);
    rest.append(D);
    Cube r = reduce_cube_against(F[i], rest);
    if (!r.is_empty(s)) reduced.add(std::move(r));
  }
  // Re-expand the reduced cubes: primes found this way can straddle the
  // cubes the sequential loop got stuck on.
  Cover raised = expand(std::move(reduced), R);
  Cover merged = F;
  merged.append(raised);
  merged.remove_contained();
  Cover candidate = irredundant(std::move(merged), D);
  return candidate.size() < F.size() ? candidate : F;
}

}  // namespace picola::esp
