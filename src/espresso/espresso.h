#pragma once
// Heuristic two-level minimisation in the style of ESPRESSO-II, operating
// on multi-valued positional-notation covers (binary logic, symbolic
// variables and multiple outputs are all instances of the same framework).
//
// The implementation follows the classic loop (R may also be supplied):
//   R = COMPLEMENT(F ∪ D); EXPAND; IRREDUNDANT; ESSENTIAL;
//   repeat { REDUCE; EXPAND; IRREDUNDANT } until no gain.
//
// All functions are deterministic.

#include <cstdint>
#include <utility>

#include "cube/cover.h"

namespace picola::esp {

/// ESPRESSO cofactor of cover `F` against cube `c`: cubes not intersecting
/// `c` are dropped, the rest get `cube | ~c` per variable.
Cover cofactor(const Cover& F, const Cube& c);

/// True when `F` covers the whole space (every minterm).
bool is_tautology(const Cover& F);

/// True when cover `F` covers every minterm of cube `c`
/// (tautology of the cofactor of `F` against `c`).
bool cover_contains_cube(const Cover& F, const Cube& c);

/// True when every cube of `G` is covered by `F`.
bool cover_contains_cover(const Cover& F, const Cover& G);

/// Complement of a single cube by De Morgan: one cube per non-full literal.
Cover complement_cube(const Cube& c, const CubeSpace& s);

/// Complement of a cover over its full space, by recursive Shannon
/// expansion with unate shortcuts.
Cover complement(const Cover& F);

/// Off-set of an (onset F, dc-set D) pair: complement(F ∪ D).
Cover complement_fd(const Cover& F, const Cover& D);

/// EXPAND: raise every cube of `F` to a prime implicant of the function
/// whose off-set is `R`, removing cubes that become covered along the way.
/// `R` must be disjoint from every cube of `F`.
Cover expand(Cover F, const Cover& R);

/// IRREDUNDANT: remove cubes covered by the rest of the cover plus the
/// dc-set `D`, leaving an irredundant cover of the same function.
Cover irredundant(Cover F, const Cover& D);

/// REDUCE: shrink each cube to the smallest cube that still covers the
/// minterms not covered by the rest of `F` plus `D` (the classic
/// "supercube of the complement of the cofactor" computation).
Cover reduce(Cover F, const Cover& D);

/// Split `F` into (essential cubes, remaining cubes).  With `F` consisting
/// of primes, the first component is the set of essential primes.
std::pair<Cover, Cover> essential_split(const Cover& F, const Cover& D);

/// Maximal reduction of a single cube against a cover (the part of `c` not
/// covered by `rest` is wrapped in the smallest containing cube).  Returns
/// an empty cube when `rest` covers `c` entirely.
Cube reduce_cube_against(const Cube& c, const Cover& rest);

/// LASTGASP (espresso's stall-breaker): reduce every cube maximally and
/// independently, re-expand the reduced cubes against `R`, and keep the
/// result if an irredundant merge beats `F`.
Cover last_gasp(Cover F, const Cover& D, const Cover& R);

/// Options for minimize().  The full loop extracts essential primes into
/// the dc-set (ESPRESSO-II's ESSEN step), runs at most 16
/// REDUCE/EXPAND/IRREDUNDANT iterations and tries LASTGASP once they
/// stall.
struct EspressoOptions {
  /// Run a single EXPAND+IRREDUNDANT pass only (fast, lower quality).
  bool single_pass = false;
};

/// Result of a minimisation run.
struct EspressoResult {
  Cover cover;     ///< minimised onset cover
  int iterations;  ///< improvement-loop iterations executed
};

/// Heuristically minimise onset `F` with dc-set `D` (same space).  The
/// result covers F, avoids the off-set, and is irredundant and prime.
EspressoResult minimize(const Cover& F, const Cover& D,
                        const EspressoOptions& opt = {});

/// As above, with the off-set `R` given instead of computed as
/// complement(F ∪ D).  `R` must cover exactly the minterms outside
/// F ∪ D; its cubes may be any cover of them (minterms will do), because
/// EXPAND and LASTGASP, its only readers, test each raise against the
/// off-set as a set.  The result is the one the overload above returns.
EspressoResult minimize(const Cover& F, const Cover& D, const Cover& R,
                        const EspressoOptions& opt = {});

/// Convenience: minimize and return just the cover.
inline Cover minimize_cover(const Cover& F, const Cover& D,
                            const EspressoOptions& opt = {}) {
  return minimize(F, D, opt).cover;
}

/// Functional equivalence modulo dc-set: every cube of `F1` is covered by
/// `F2 ∪ D` and vice versa.
bool equivalent(const Cover& F1, const Cover& F2, const Cover& D);

/// True when no cube of `F` intersects any cube of `R`.
bool disjoint(const Cover& F, const Cover& R);

}  // namespace picola::esp

// Internal helpers shared between the espresso translation units.
namespace picola::esp::detail {

/// Per-variable activity summary of a cover.
struct VarActivity {
  int var = -1;          ///< variable index
  int non_full = 0;      ///< number of cubes with a non-full literal
};

/// Index of the "most binate" active variable of `F` (most cubes with a
/// non-full literal); -1 when every literal of every cube is full.
int select_split_var(const Cover& F);

/// Union of the *non-full* literals of variable `var` over all cubes; used
/// by the unate reduction.  Returns it as the literal of `var` in a cube
/// whose other variables are empty.
Cube nonfull_literal_union(const Cover& F, int var);

/// Cube with variable `var` restricted to part `p` and every other
/// variable full.
Cube part_cube(const CubeSpace& s, int var, int p);

}  // namespace picola::esp::detail
