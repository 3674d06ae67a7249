// The ESPRESSO-II improvement loop.

#include "espresso/espresso.h"

namespace picola::esp {
namespace {

/// Upper bound on REDUCE/EXPAND/IRREDUNDANT iterations.
constexpr int kMaxIterations = 16;

/// The loop proper, on an onset already cleaned of empty and contained
/// cubes.
EspressoResult improve(Cover F, const Cover& D, const Cover& R,
                       const EspressoOptions& opt) {
  F = expand(std::move(F), R);
  F = irredundant(std::move(F), D);

  Cover E(F.space());
  int iters = 0;
  if (!opt.single_pass) {
    auto [ess, rest] = essential_split(F, D);
    E = std::move(ess);
    F = std::move(rest);
    Cover D2 = D;
    D2.append(E);
    Cover best = F;
    for (; iters < kMaxIterations; ++iters) {
      int before = F.size();
      F = reduce(std::move(F), D2);
      F = expand(std::move(F), R);
      F = irredundant(std::move(F), D2);
      if (F.size() < best.size()) best = F;
      if (F.size() >= before) {
        Cover gasp = last_gasp(F, D2, R);
        if (gasp.size() >= F.size()) break;
        F = std::move(gasp);
        if (F.size() < best.size()) best = F;
        // The stall is broken; keep iterating.
      }
    }
    F = std::move(best);
  }

  F.append(E);
  F.remove_contained();
  return {std::move(F), iters};
}

Cover cleaned(const Cover& F) {
  Cover f = F;
  f.remove_empty();
  f.remove_contained();
  return f;
}

}  // namespace

EspressoResult minimize(const Cover& F_in, const Cover& D,
                        const EspressoOptions& opt) {
  Cover F = cleaned(F_in);
  if (F.empty()) return {F, 0};
  const Cover R = complement_fd(F, D);
  return improve(std::move(F), D, R, opt);
}

EspressoResult minimize(const Cover& F_in, const Cover& D, const Cover& R,
                        const EspressoOptions& opt) {
  Cover F = cleaned(F_in);
  if (F.empty()) return {F, 0};
  return improve(std::move(F), D, R, opt);
}

}  // namespace picola::esp
