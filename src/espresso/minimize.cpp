// The ESPRESSO-II improvement loop.

#include "espresso/espresso.h"

namespace picola::esp {
namespace {

/// The loop proper, on an onset already cleaned of empty and contained
/// cubes.
EspressoResult improve(Cover F, const Cover& D, const Cover& R,
                       const EspressoOptions& opt) {
  F = expand(std::move(F), R);
  F = irredundant(std::move(F), D);

  Cover E(F.space());
  Cover D2 = D;
  if (opt.use_essentials && !opt.single_pass) {
    auto [ess, rest] = essential_split(F, D);
    E = std::move(ess);
    F = std::move(rest);
    D2.append(E);
  }

  int iters = 0;
  if (!opt.single_pass) {
    Cover best = F;
    for (; iters < opt.max_iterations; ++iters) {
      int before = F.size();
      F = reduce(std::move(F), D2);
      F = expand(std::move(F), R);
      F = irredundant(std::move(F), D2);
      if (F.size() < best.size()) best = F;
      if (F.size() >= before) {
        if (opt.use_last_gasp) {
          Cover gasp = last_gasp(F, D2, R);
          if (gasp.size() < F.size()) {
            F = std::move(gasp);
            if (F.size() < best.size()) best = F;
            continue;  // the stall is broken; keep iterating
          }
        }
        break;
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
