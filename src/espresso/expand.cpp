// EXPAND: raise cubes to primes against the off-set, covering and removing
// other cubes of the cover along the way.
//
// Per-cube expansion keeps, for every off-set cube, the bitmask of
// variables in which it is disjoint from the growing cube ("empty
// variables").  A part raise is legal iff no off-set cube at distance one
// would reach distance zero.  The covering heuristic scores candidate parts
// by how many still-uncovered cover cubes assert them; the score table is
// computed once per expansion, which is a close and much cheaper
// approximation of ESPRESSO's per-raise bookkeeping.
//
// The scan is word-parallel.  An off-set cube at distance one blocks its
// parts in its one empty variable, and it stays at distance one in that
// variable (raising one of those parts is exactly what it blocks), so the
// blocked parts are one OR that only grows.  The free parts are scanned in
// flat bit order, which is (variable, part) order, keeping the first
// maximum score; docs/ALGORITHM.md ("Cube kernel") has the argument.

#include <algorithm>
#include <bit>
#include <cassert>

#include "espresso/espresso.h"

namespace picola::esp {
namespace {

/// Buffers of one expand() call, reused by each of its expand_one()s.
struct ExpandScratch {
  std::vector<uint64_t> empty_mask;  ///< per off-set cube: empty variables
  std::vector<uint64_t> blocked;     ///< parts no legal raise may set
  std::vector<int> score;            ///< per part: uncovered cubes with it
};

/// Variable of the part at flat bit index `bit`.
int var_of_part(const CubeSpace& s, int bit) {
  int lo = 0, hi = s.num_vars() - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (s.offset(mid) <= bit)
      lo = mid;
    else
      hi = mid - 1;
  }
  return lo;
}

/// blocked |= r's parts in variable v.
void block_parts(const CubeSpace& s, const Cube& r, int v,
                 std::vector<uint64_t>& blocked) {
  for (const CubeSpace::WordMask& e : s.var_words(v))
    blocked[static_cast<size_t>(e.word)] |= r.word(e.word) & e.mask;
}

Cube expand_one(Cube c, const Cover& R, const Cover& F,
                const std::vector<bool>& covered, int self,
                ExpandScratch& x) {
  const CubeSpace& s = R.space();
  const int nvars = s.num_vars();
  const int nw = s.num_words();
  assert(nvars <= 64 && "expand uses a 64-bit variable mask");

  x.empty_mask.assign(static_cast<size_t>(R.size()), 0);
  x.blocked.assign(static_cast<size_t>(nw), 0);
  const uint64_t* cw = c.words().data();
  for (int r = 0; r < R.size(); ++r) {
    const uint64_t* rw = R[r].words().data();
    uint64_t m = 0;
    for (int v = 0; v < nvars; ++v) {
      bool disjoint = true;
      for (const CubeSpace::WordMask& e : s.var_words(v))
        if (cw[e.word] & rw[e.word] & e.mask) {
          disjoint = false;
          break;
        }
      if (disjoint) m |= uint64_t{1} << v;
    }
    x.empty_mask[static_cast<size_t>(r)] = m;
    assert(m != 0 && "cube intersects off-set");
    if (std::popcount(m) == 1)
      block_parts(s, R[r], std::countr_zero(m), x.blocked);
  }

  // Covering-potential score per part, over currently uncovered cubes.
  x.score.assign(static_cast<size_t>(s.total_parts()), 0);
  for (int j = 0; j < F.size(); ++j) {
    if (j == self || covered[static_cast<size_t>(j)]) continue;
    for (int w = 0; w < nw; ++w)
      for (uint64_t bits = F[j].word(w); bits != 0; bits &= bits - 1)
        ++x.score[static_cast<size_t>(w * 64 + std::countr_zero(bits))];
  }

  const uint64_t* full = s.full_words().data();
  while (true) {
    int best = -1;
    int best_score = -1;
    for (int w = 0; w < nw; ++w) {
      const uint64_t free =
          full[w] & ~c.word(w) & ~x.blocked[static_cast<size_t>(w)];
      for (uint64_t bits = free; bits != 0; bits &= bits - 1) {
        const int b = w * 64 + std::countr_zero(bits);
        if (x.score[static_cast<size_t>(b)] > best_score) {
          best_score = x.score[static_cast<size_t>(b)];
          best = b;
        }
      }
    }
    if (best < 0) break;  // prime: every free part is blocked
    const int bw = best >> 6;
    const uint64_t bm = uint64_t{1} << (best & 63);
    c.words()[static_cast<size_t>(bw)] |= bm;
    // Off-set cubes asserting this part may lose their emptiness in its
    // variable; one left with a single empty variable blocks its parts
    // there.
    const uint64_t bit = uint64_t{1} << var_of_part(s, best);
    for (int r = 0; r < R.size(); ++r) {
      uint64_t& m = x.empty_mask[static_cast<size_t>(r)];
      if ((m & bit) && (R[r].word(bw) & bm)) {
        m &= ~bit;
        assert(m != 0);
        if (std::popcount(m) == 1)
          block_parts(s, R[r], std::countr_zero(m), x.blocked);
      }
    }
  }
  return c;
}

}  // namespace

Cover expand(Cover F, const Cover& R) {
  const CubeSpace& s = F.space();
  // Expand the smallest cubes first: they are the hardest to cover and
  // their primes tend to swallow the rest.
  std::stable_sort(F.cubes().begin(), F.cubes().end(),
                   [&](const Cube& a, const Cube& b) {
                     uint64_t ma = a.num_minterms(s);
                     uint64_t mb = b.num_minterms(s);
                     if (ma != mb) return ma < mb;
                     return a < b;
                   });
  std::vector<bool> covered(static_cast<size_t>(F.size()), false);
  ExpandScratch scratch;
  for (int i = 0; i < F.size(); ++i) {
    if (covered[static_cast<size_t>(i)]) continue;
    Cube prime = expand_one(F[i], R, F, covered, i, scratch);
    for (int j = 0; j < F.size(); ++j) {
      if (j == i || covered[static_cast<size_t>(j)]) continue;
      if (prime.contains(F[j])) covered[static_cast<size_t>(j)] = true;
    }
    F[i] = std::move(prime);
  }
  Cover out(s);
  out.reserve(F.size());
  for (int i = 0; i < F.size(); ++i)
    if (!covered[static_cast<size_t>(i)]) out.add(F[i]);
  out.remove_contained();
  return out;
}

}  // namespace picola::esp
