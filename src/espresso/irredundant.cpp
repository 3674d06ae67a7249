// IRREDUNDANT: drop cubes covered by the remainder of the cover plus the
// dc-set.  The result is an irredundant cover of the same function.

#include <algorithm>

#include "espresso/espresso.h"

namespace picola::esp {

Cover irredundant(Cover F, const Cover& D) {
  const CubeSpace& s = F.space();
  F.remove_empty();
  F.remove_contained();
  // Try to remove small cubes first so the big primes carry the cover.
  std::stable_sort(F.cubes().begin(), F.cubes().end(),
                   [&](const Cube& a, const Cube& b) {
                     uint64_t ma = a.num_minterms(s);
                     uint64_t mb = b.num_minterms(s);
                     if (ma != mb) return ma < mb;
                     return a < b;
                   });
  std::vector<bool> removed(static_cast<size_t>(F.size()), false);
  Cover rest(s);  // rebuilt for every cube, in one buffer
  rest.reserve(F.size() + D.size());
  for (int i = 0; i < F.size(); ++i) {
    rest.clear();
    for (int j = 0; j < F.size(); ++j)
      if (j != i && !removed[static_cast<size_t>(j)]) rest.add(F[j]);
    rest.append(D);
    if (cover_contains_cube(rest, F[i])) removed[static_cast<size_t>(i)] = true;
  }
  Cover out(s);
  for (int i = 0; i < F.size(); ++i)
    if (!removed[static_cast<size_t>(i)]) out.add(F[i]);
  return out;
}

}  // namespace picola::esp
