#include "encoders/annealing.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "constraints/dichotomy.h"
#include "encoders/trivial.h"

namespace picola {

double weighted_dichotomy_score(const ConstraintSet& cs, const Encoding& enc) {
  double score = 0;
  for (const auto& c : cs.constraints) {
    for (int j = 0; j < cs.num_symbols; ++j) {
      if (c.contains(j)) continue;
      if (dichotomy_satisfied(c, j, enc)) score += c.weight;
    }
  }
  return score;
}

namespace {

/// Score restricted to the constraints whose evaluation can change when
/// the codes of `a` and `b` change: every dichotomy of a constraint
/// containing a or b, plus the (k, a)/(k, b) dichotomies of the rest.
double local_score(const ConstraintSet& cs, const Encoding& enc, int a, int b) {
  double score = 0;
  for (const auto& c : cs.constraints) {
    bool member = c.contains(a) || (b >= 0 && c.contains(b));
    if (member) {
      for (int j = 0; j < cs.num_symbols; ++j) {
        if (c.contains(j)) continue;
        if (dichotomy_satisfied(c, j, enc)) score += c.weight;
      }
    } else {
      if (dichotomy_satisfied(c, a, enc)) score += c.weight;
      if (b >= 0 && dichotomy_satisfied(c, b, enc)) score += c.weight;
    }
  }
  return score;
}

}  // namespace

AnnealingResult annealing_encode(const ConstraintSet& cs,
                                 const AnnealingOptions& opt) {
  const int n = cs.num_symbols;
  const int nv = Encoding::resolve_bits(n, opt.num_bits, "annealing_encode");
  std::mt19937_64 rng(opt.seed);

  AnnealingResult result;
  Encoding enc = sequential_encoding(n, nv);
  const uint64_t cells = uint64_t{1} << nv;
  // The symbol holding `code`, or -1 for a free code.  A scan of the n
  // codes: memory stays O(n) at any code length, and each move's two
  // local_score passes cost O(n) per constraint anyway.
  auto occupant = [&enc](uint32_t code) {
    auto it = std::find(enc.codes.begin(), enc.codes.end(), code);
    return it == enc.codes.end() ? -1
                                 : static_cast<int>(it - enc.codes.begin());
  };

  double score = weighted_dichotomy_score(cs, enc);
  Encoding best = enc;
  double best_score = score;

  const int moves_per_temp =
      opt.moves_per_temp > 0 ? opt.moves_per_temp : 8 * n * nv;
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  for (double t = opt.t_start; t > opt.t_end; t *= opt.cooling) {
    for (int mv = 0; mv < moves_per_temp; ++mv) {
      if ((result.moves_tried & 63) == 0) throw_if_cancelled(opt.cancel.get());
      ++result.moves_tried;
      int a = static_cast<int>(rng() % static_cast<uint64_t>(n));
      uint32_t target = static_cast<uint32_t>(rng() % cells);
      int b = occupant(target);
      if (b == a) continue;

      double before = local_score(cs, enc, a, b);
      uint32_t code_a = enc.code(a);
      // Apply: swap with occupant, or move to the free code.
      enc.codes[static_cast<size_t>(a)] = target;
      if (b >= 0) enc.codes[static_cast<size_t>(b)] = code_a;
      double after = local_score(cs, enc, a, b);
      double delta = after - before;
      if (delta >= 0 || unit(rng) < std::exp(delta / t)) {
        ++result.moves_accepted;
        score += delta;
        if (score > best_score) {
          best_score = score;
          best = enc;
        }
      } else {
        // Revert.
        enc.codes[static_cast<size_t>(a)] = code_a;
        if (b >= 0) enc.codes[static_cast<size_t>(b)] = target;
      }
    }
  }
  result.encoding = std::move(best);
  result.best_score = best_score;
  return result;
}

}  // namespace picola
