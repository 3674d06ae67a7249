#include "constraints/derive.h"

#include <cassert>

#include "espresso/espresso.h"

namespace picola {

void build_symbolic_cover(const Fsm& fsm, Cover* onset, Cover* dcset) {
  const int ns = fsm.num_states();
  const int no = fsm.num_outputs;
  CubeSpace s = CubeSpace::fsm_layout(fsm.num_inputs, ns, ns + no);
  const int mv = s.mv_var();
  const int ov = s.output_var();
  *onset = Cover(s);
  *dcset = Cover(s);

  for (const auto& t : fsm.transitions) {
    Cube base = Cube::full(s);
    for (int v = 0; v < fsm.num_inputs; ++v) {
      char ch = t.input[static_cast<size_t>(v)];
      if (ch == '0') base.set_binary(s, v, 0);
      if (ch == '1') base.set_binary(s, v, 1);
    }
    base.clear_var(s, mv);
    base.set(s, mv, t.from);

    // Onset: asserted next-state bit plus '1' outputs.
    Cube on = base;
    on.clear_var(s, ov);
    bool any_on = false;
    if (t.to != Transition::kAnyState) {
      on.set(s, ov, t.to);
      any_on = true;
    }
    for (int o = 0; o < no; ++o) {
      if (t.output[static_cast<size_t>(o)] == '1') {
        on.set(s, ov, ns + o);
        any_on = true;
      }
    }
    if (any_on) onset->add(std::move(on));

    // Dc-set: unspecified next state ('*') makes every next-state bit dc;
    // '-' outputs are dc.
    Cube dc = base;
    dc.clear_var(s, ov);
    bool any_dc = false;
    if (t.to == Transition::kAnyState) {
      for (int q = 0; q < ns; ++q) dc.set(s, ov, q);
      any_dc = true;
    }
    for (int o = 0; o < no; ++o) {
      if (t.output[static_cast<size_t>(o)] == '-') {
        dc.set(s, ov, ns + o);
        any_dc = true;
      }
    }
    if (any_dc) dcset->add(std::move(dc));
  }
}

ConstraintSet extract_constraints(const Cover& minimized, int num_symbols,
                                  int mv_var) {
  assert(mv_var >= 0);
  const CubeSpace& s = minimized.space();
  ConstraintSet cs;
  cs.num_symbols = num_symbols;
  for (const Cube& c : minimized.cubes()) {
    std::vector<int> members;
    for (int p = 0; p < s.parts(mv_var); ++p)
      if (c.test(s, mv_var, p)) members.push_back(p);
    cs.add(std::move(members));  // add() drops trivial/full groups
  }
  return cs;
}

DerivedConstraints derive_face_constraints(const Fsm& fsm) {
  DerivedConstraints out;
  build_symbolic_cover(fsm, &out.symbolic_onset, &out.symbolic_dc);
  out.space = out.symbolic_onset.space();
  out.minimized = esp::minimize_cover(out.symbolic_onset, out.symbolic_dc);
  out.set =
      extract_constraints(out.minimized, fsm.num_states(), out.space.mv_var());
  return out;
}

}  // namespace picola
