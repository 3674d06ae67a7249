#pragma once
// The paper's general application: encoding a symbolic *input* of a
// multi-valued function (microcode mnemonic fields, symbolic inputs from
// high-level descriptions, ...).  The flow mirrors the FSM tool: minimise
// the multi-valued cover, extract face constraints on the chosen variable,
// encode at minimum length, then substitute the symbolic literal by a
// cover over the new code bits (Theorem-I construction where it applies).

#include <cstdint>

#include "constraints/face_constraint.h"
#include "core/picola.h"
#include "cube/cover.h"
#include "encoders/encoding.h"

namespace picola {

/// Encoder selection for the generic flow.
enum class InputEncoder {
  kPicola,
  kNovaLike,
  kEncLike,
  kAnnealing,
  kSequential,
  kRandom,
};

struct InputEncodingOptions {
  InputEncoder encoder = InputEncoder::kPicola;
  PicolaOptions picola;
  int num_bits = 0;  ///< 0 = minimum length
  uint64_t seed = 1;
  /// Run the final binary minimisation (off = just substitute codes).
  bool minimize_final = true;
};

struct InputEncodingResult {
  Cover minimized_symbolic;  ///< after multi-valued minimisation
  ConstraintSet constraints;
  Encoding encoding;
  CubeSpace encoded_space;  ///< var replaced by code-bit binary variables
  Cover encoded_onset;
  Cover encoded_dc;
  Cover minimized;  ///< final cover (== encoded_onset when !minimize_final)
};

/// Replace the multi-valued variable `var` of the function (onset, dc) by
/// a binary encoding of its parts.  `var` must not be binary.
InputEncodingResult encode_symbolic_input(const Cover& onset, const Cover& dc,
                                          int var,
                                          const InputEncodingOptions& opt = {});

/// The cube space of `s` with variable `var` replaced by `nv` binary
/// variables (at the same position).
CubeSpace replace_var_with_bits(const CubeSpace& s, int var, int nv);

/// Implement a group of symbols over the code bits: the single supercube
/// when the group is a satisfied face, the Theorem-I constructive cover
/// when its precondition holds, and an espresso-minimised cover of the
/// member codes (unused codes as dc) otherwise.
std::vector<CodeCube> encode_symbol_group(const std::vector<int>& members,
                                          const Encoding& enc);

}  // namespace picola
