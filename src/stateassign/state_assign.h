#pragma once
// The full state-assignment tool (paper §4, Table II): derive face
// constraints by symbolic minimisation, encode the states with a chosen
// encoder, assemble the encoded two-level implementation, and minimise it
// with espresso.  Includes a co-simulation self-check of the encoded
// implementation against the symbolic machine.

#include <cstdint>
#include <string>

#include "constraints/derive.h"
#include "encoders/encoding.h"
#include "encoders/nova_like.h"
#include "core/picola.h"
#include "kiss/fsm.h"
#include "pla/pla.h"

namespace picola {

/// Which encoder drives the assignment.
enum class Assigner {
  kPicola,      ///< the paper's tool
  kNovaILike,   ///< NOVA i-hybrid stand-in (input constraints only)
  kNovaIoLike,  ///< NOVA io-hybrid stand-in (adds output adjacency pass)
  kEncLike,     ///< dichotomy-count baseline
  kSequential,  ///< binary counting (no constraint information)
  kRandom,      ///< seeded random codes
};

const char* assigner_name(Assigner a);

struct StateAssignOptions {
  Assigner assigner = Assigner::kPicola;
  PicolaOptions picola;
  /// Encode the minimised symbolic cover (the paper's flow).  When false,
  /// the raw transition table is encoded instead.
  bool use_symbolic_cover = true;
  /// Run pair-chart state minimisation before deriving constraints.
  bool minimize_states_first = false;
};

struct StateAssignResult {
  Encoding encoding;
  /// The machine actually encoded (differs from the input when
  /// minimize_states_first merged states).
  Fsm machine;
  int states_merged = 0;
  DerivedConstraints derived;
  Cover encoded_onset;  ///< before the final minimisation
  Cover encoded_dc;
  Cover minimized;      ///< final two-level cover
  Pla pla;              ///< final PLA personality
  int product_terms = 0;
  long area = 0;
  double derive_ms = 0;
  double encode_ms = 0;
  double minimize_ms = 0;
};

StateAssignResult assign_states(const Fsm& fsm,
                                const StateAssignOptions& opt = {});

/// Output-adjacency preferences for the io flavour: states that appear as
/// next states of the same present state / compatible inputs want adjacent
/// codes (weight = co-occurrence count).
std::vector<AdjacencyPreference> next_state_adjacency(const Fsm& fsm);

/// Co-simulate the symbolic machine against the encoded cover for
/// `steps` random input vectors; returns "" on success or a diagnostic.
std::string verify_against_fsm(const Fsm& fsm, const Encoding& enc,
                               const Cover& onset, const Cover& dcset,
                               int steps, uint64_t seed);

}  // namespace picola
