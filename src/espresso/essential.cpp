// ESSENTIAL: split a prime cover into essential and non-essential parts.
// A cube is (relatively) essential when the rest of the cover plus the
// dc-set does not cover it; with a prime cover this identifies the
// essential primes that must appear in every prime irredundant cover.

#include "espresso/espresso.h"

namespace picola::esp {

std::pair<Cover, Cover> essential_split(const Cover& F, const Cover& D) {
  const CubeSpace& s = F.space();
  Cover ess(s);
  Cover rest(s);
  Cover others(s);  // rebuilt for every cube, in one buffer
  others.reserve(F.size() + D.size());
  for (int i = 0; i < F.size(); ++i) {
    others.clear();
    for (int j = 0; j < F.size(); ++j)
      if (j != i) others.add(F[j]);
    others.append(D);
    if (cover_contains_cube(others, F[i]))
      rest.add(F[i]);
    else
      ess.add(F[i]);
  }
  return {std::move(ess), std::move(rest)};
}

}  // namespace picola::esp
