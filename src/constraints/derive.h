#pragma once
// Face-constraint derivation by symbolic (multi-valued) minimisation.
//
// The FSM's present state becomes a multi-valued input variable in one-hot
// positional notation; the next state is replaced by a one-hot code (one
// output per state), exactly as the paper derives its input-encoding
// problems from the IWLS'93 machines.  After multi-valued minimisation,
// every cube whose state literal groups more than one (and not every)
// state yields a face constraint on those states.

#include "constraints/face_constraint.h"
#include "cube/cover.h"
#include "kiss/fsm.h"

namespace picola {

/// Output of the derivation: the constraints plus the minimised symbolic
/// cover they came from (kept for diagnostics and for the state-assignment
/// tool, which encodes this cover).
struct DerivedConstraints {
  ConstraintSet set;
  CubeSpace space;          ///< fsm_layout(inputs, states, states+outputs)
  Cover symbolic_onset;     ///< original (unminimised) onset
  Cover symbolic_dc;        ///< dc-set (unspecified next states / outputs)
  Cover minimized;          ///< minimised symbolic cover
};

/// Build the one-hot symbolic cover of `fsm`.  Output variable parts are
/// laid out as [next-state one-hot | primary outputs].
void build_symbolic_cover(const Fsm& fsm, Cover* onset, Cover* dcset);

/// Run the full derivation (symbolic minimisation + constraint
/// extraction).
DerivedConstraints derive_face_constraints(const Fsm& fsm);

/// Extract face constraints from a minimised symbolic cover (exposed for
/// tests and for the paper's Figure 1 example).
ConstraintSet extract_constraints(const Cover& minimized, int num_symbols,
                                  int mv_var);

}  // namespace picola
