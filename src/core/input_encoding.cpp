#include "core/input_encoding.h"

#include <cassert>

#include "constraints/derive.h"
#include "core/theorem1.h"
#include "encoders/annealing.h"
#include "encoders/enc_like.h"
#include "encoders/nova_like.h"
#include "encoders/trivial.h"
#include "espresso/espresso.h"
#include "eval/constraint_eval.h"

namespace picola {

CubeSpace replace_var_with_bits(const CubeSpace& s, int var, int nv) {
  std::vector<int> parts;
  for (int u = 0; u < s.num_vars(); ++u) {
    if (u == var) {
      for (int b = 0; b < nv; ++b) parts.push_back(2);
    } else {
      parts.push_back(s.parts(u));
    }
  }
  return CubeSpace::multi_valued(std::move(parts));
}

std::vector<CodeCube> encode_symbol_group(const std::vector<int>& members,
                                          const Encoding& enc) {
  FaceConstraint grp;
  grp.members = members;
  if (auto t1 = theorem1_cover(grp, enc)) return *t1;
  // Intruders do not form a clean cube: minimise the group function over
  // the code bits with the unused codes as dc.
  Cover cov = constraint_cover(grp, enc);
  std::vector<CodeCube> out;
  for (const Cube& cc : cov.cubes()) {
    CodeCube code_cube;
    for (int b = 0; b < enc.num_bits; ++b) {
      int v = cc.binary_value(cov.space(), b);
      if (v == 0 || v == 1) {
        code_cube.care |= uint32_t{1} << b;
        if (v == 1) code_cube.value |= uint32_t{1} << b;
      }
    }
    out.push_back(code_cube);
  }
  return out;
}

namespace {

Encoding run_encoder(const ConstraintSet& set, const InputEncodingOptions& o) {
  switch (o.encoder) {
    case InputEncoder::kPicola: {
      PicolaOptions p = o.picola;
      p.num_bits = o.num_bits;
      return picola_encode(set, p).encoding;
    }
    case InputEncoder::kNovaLike: {
      NovaLikeOptions n;
      n.num_bits = o.num_bits;
      return nova_like_encode(set, n).encoding;
    }
    case InputEncoder::kEncLike: {
      EncLikeOptions e;
      e.num_bits = o.num_bits;
      return enc_like_encode(set, e).encoding;
    }
    case InputEncoder::kAnnealing: {
      AnnealingOptions a;
      a.num_bits = o.num_bits;
      a.seed = o.seed;
      return annealing_encode(set, a).encoding;
    }
    case InputEncoder::kSequential:
      return sequential_encoding(set.num_symbols, o.num_bits);
    case InputEncoder::kRandom:
      return random_encoding(set.num_symbols, o.seed, o.num_bits);
  }
  return sequential_encoding(set.num_symbols, o.num_bits);
}

/// Copy every variable except `var` from `src` into a full cube of the
/// encoded space, then intersect with the code-bit cover of the symbolic
/// literal; appends the results to `out`.
void substitute_cube(const Cube& src, const CubeSpace& old_space, int var,
                     const CubeSpace& new_space, const Encoding& enc,
                     Cover* out) {
  // Gather the literal's member parts.
  std::vector<int> members;
  for (int p = 0; p < old_space.parts(var); ++p)
    if (src.test(old_space, var, p)) members.push_back(p);
  if (members.empty()) return;

  Cube base = Cube::full(new_space);
  for (int u = 0; u < old_space.num_vars(); ++u) {
    if (u == var) continue;
    int nu = u < var ? u : u + enc.num_bits - 1;
    for (int p = 0; p < old_space.parts(u); ++p)
      base.set(new_space, nu, p, src.test(old_space, u, p));
  }

  if (static_cast<int>(members.size()) == old_space.parts(var)) {
    // Full literal: no restriction on the code bits.
    out->add(std::move(base));
    return;
  }
  for (const CodeCube& cc : encode_symbol_group(members, enc)) {
    Cube c = base;
    for (int b = 0; b < enc.num_bits; ++b) {
      uint32_t bit = uint32_t{1} << b;
      if (cc.care & bit) c.set_binary(new_space, var + b, (cc.value & bit) ? 1 : 0);
    }
    out->add(std::move(c));
  }
}

}  // namespace

InputEncodingResult encode_symbolic_input(const Cover& onset, const Cover& dc,
                                          int var,
                                          const InputEncodingOptions& opt) {
  const CubeSpace& s = onset.space();
  assert(var >= 0 && var < s.num_vars() && !s.is_binary(var));
  const int n = s.parts(var);

  InputEncodingResult r;
  r.minimized_symbolic = esp::minimize_cover(onset, dc);
  r.constraints = extract_constraints(r.minimized_symbolic, n, var);
  r.encoding = run_encoder(r.constraints, opt);

  r.encoded_space = replace_var_with_bits(s, var, r.encoding.num_bits);
  r.encoded_onset = Cover(r.encoded_space);
  r.encoded_dc = Cover(r.encoded_space);
  for (const Cube& c : r.minimized_symbolic.cubes())
    substitute_cube(c, s, var, r.encoded_space, r.encoding, &r.encoded_onset);
  for (const Cube& c : dc.cubes())
    substitute_cube(c, s, var, r.encoded_space, r.encoding, &r.encoded_dc);

  // Unused codes are don't-cares for the whole function.
  for (uint32_t u : r.encoding.unused_codes()) {
    Cube c = Cube::full(r.encoded_space);
    for (int b = 0; b < r.encoding.num_bits; ++b)
      c.set_binary(r.encoded_space, var + b, static_cast<int>((u >> b) & 1u));
    r.encoded_dc.add(std::move(c));
  }

  r.minimized = opt.minimize_final
                    ? esp::minimize_cover(r.encoded_onset, r.encoded_dc)
                    : r.encoded_onset;
  return r;
}

}  // namespace picola
