#include "encoders/enc_like.h"

#include "core/picola.h"
#include "eval/constraint_eval.h"

namespace picola {
namespace {

/// Maximum refinement sweeps.
constexpr int kRefinePasses = 2;

}  // namespace

EncLikeResult enc_like_encode(const ConstraintSet& cs,
                              const EncLikeOptions& opt) {
  // Column-based greedy on the plain dichotomy count: PICOLA's Solve()
  // with unit weights and all of the paper's machinery switched off.
  PicolaOptions base;
  base.use_guides = false;
  base.use_classify = false;
  base.unweighted = true;
  base.num_bits = opt.num_bits;
  EncLikeResult result;
  result.encoding = picola_encode(cs, base).encoding;
  if (!opt.minimize_in_loop) return result;

  // Espresso-in-the-loop refinement: accept a code swap when the summed
  // minimised cube count improves.  One full evaluation costs one
  // minimisation per constraint — this is what makes the ENC approach
  // orders of magnitude slower than the column heuristics.
  Encoding& e = result.encoding;
  const int n = e.num_symbols;

  // Swapping the codes of a and b only changes the functions of the
  // constraints containing a or b (the used-code set is unchanged), so the
  // delta can be evaluated exactly on that subset.
  std::vector<int> per(static_cast<size_t>(cs.size()));
  for (int k = 0; k < cs.size(); ++k) {
    per[static_cast<size_t>(k)] =
        constraint_cube_count(cs.constraints[static_cast<size_t>(k)], e);
    ++result.espresso_calls;
  }
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    bool improved = false;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        std::vector<int> touched;
        for (int k = 0; k < cs.size(); ++k) {
          const auto& c = cs.constraints[static_cast<size_t>(k)];
          if (c.contains(a) != c.contains(b)) touched.push_back(k);
        }
        if (touched.empty()) continue;
        std::swap(e.codes[static_cast<size_t>(a)],
                  e.codes[static_cast<size_t>(b)]);
        long delta = 0;
        std::vector<int> ncost(touched.size());
        for (size_t i = 0; i < touched.size(); ++i) {
          int k = touched[i];
          ncost[i] =
              constraint_cube_count(cs.constraints[static_cast<size_t>(k)], e);
          ++result.espresso_calls;
          delta += ncost[i] - per[static_cast<size_t>(k)];
        }
        if (delta < 0) {
          for (size_t i = 0; i < touched.size(); ++i)
            per[static_cast<size_t>(touched[i])] = ncost[i];
          improved = true;
        } else {
          std::swap(e.codes[static_cast<size_t>(a)],
                    e.codes[static_cast<size_t>(b)]);
        }
      }
    }
    if (!improved) break;
  }
  return result;
}

}  // namespace picola
