// Recursive multi-valued tautology check with unate shortcuts.

#include "espresso/espresso.h"

namespace picola::esp {
namespace {

using detail::nonfull_literal_union;
using detail::part_cube;
using detail::select_split_var;

bool taut_rec(const Cover& F) {
  const CubeSpace& s = F.space();
  if (F.empty()) return false;

  // A full cube covers everything.
  for (const Cube& c : F.cubes())
    if (c.is_full(s)) return true;

  // Column check: if some part of some variable is covered by no cube at
  // all, a minterm with that value is uncovered.
  {
    Cube col_or = Cube::zeros(s);
    for (const Cube& c : F.cubes()) col_or = col_or.supercube(c);
    if (!col_or.is_full(s)) return false;
  }

  // Unate reduction: if some part p of variable v is contained in no
  // non-full literal, then the cofactor against v=p keeps only full-literal
  // cubes and is contained in every other cofactor of v; tautology reduces
  // to that single branch.
  for (int v = 0; v < s.num_vars(); ++v) {
    const Cube u = nonfull_literal_union(F, v);
    bool active = false;
    for (const Cube& c : F.cubes())
      if (!c.var_full(s, v)) {
        active = true;
        break;
      }
    if (!active) continue;
    for (int p = 0; p < s.parts(v); ++p) {
      if (!u.test(s, v, p)) {
        return taut_rec(cofactor(F, part_cube(s, v, p)));
      }
    }
  }

  // Single active variable: tautology iff the literal union is full, which
  // the column check above already established.  Detect the case to avoid
  // useless splitting.
  {
    int active_vars = 0;
    for (int v = 0; v < s.num_vars(); ++v) {
      for (const Cube& c : F.cubes()) {
        if (!c.var_full(s, v)) {
          ++active_vars;
          break;
        }
      }
    }
    if (active_vars <= 1) return true;
  }

  // Shannon split on the most binate variable.
  int v = select_split_var(F);
  if (v < 0) return true;  // all cubes full (handled above, defensive)
  for (int p = 0; p < s.parts(v); ++p) {
    if (!taut_rec(cofactor(F, part_cube(s, v, p)))) return false;
  }
  return true;
}

}  // namespace

bool is_tautology(const Cover& F) { return taut_rec(F); }

}  // namespace picola::esp
