#include "stateassign/state_assign.h"

#include <algorithm>
#include <random>

#include "encoders/enc_like.h"
#include "encoders/trivial.h"
#include "espresso/espresso.h"
#include "eval/metrics.h"
#include "kiss/minimize_states.h"
#include "kiss/simulator.h"
#include "stateassign/assemble.h"

namespace picola {
namespace {

/// Seed of the kRandom assigner's codes.
constexpr uint64_t kRandomSeed = 1;

}  // namespace

const char* assigner_name(Assigner a) {
  switch (a) {
    case Assigner::kPicola: return "picola";
    case Assigner::kNovaILike: return "nova-i-like";
    case Assigner::kNovaIoLike: return "nova-io-like";
    case Assigner::kEncLike: return "enc-like";
    case Assigner::kSequential: return "sequential";
    case Assigner::kRandom: return "random";
  }
  return "?";
}

std::vector<AdjacencyPreference> next_state_adjacency(const Fsm& fsm) {
  // Count, for every pair of states, how often they appear as next states
  // of the same present state (the classic output-encoding affinity).
  const int ns = fsm.num_states();
  std::vector<std::vector<double>> w(
      static_cast<size_t>(ns), std::vector<double>(static_cast<size_t>(ns), 0));
  for (int st = 0; st < ns; ++st) {
    std::vector<int> nexts;
    for (const auto& t : fsm.transitions)
      if (t.from == st && t.to != Transition::kAnyState) nexts.push_back(t.to);
    for (size_t i = 0; i < nexts.size(); ++i)
      for (size_t j = i + 1; j < nexts.size(); ++j) {
        int a = nexts[i], b = nexts[j];
        if (a != b) w[static_cast<size_t>(std::min(a, b))]
                     [static_cast<size_t>(std::max(a, b))] += 1.0;
      }
  }
  std::vector<AdjacencyPreference> prefs;
  for (int a = 0; a < ns; ++a)
    for (int b = a + 1; b < ns; ++b)
      if (w[static_cast<size_t>(a)][static_cast<size_t>(b)] > 0)
        prefs.push_back({a, b, w[static_cast<size_t>(a)][static_cast<size_t>(b)]});
  return prefs;
}

StateAssignResult assign_states(const Fsm& input_fsm,
                                const StateAssignOptions& opt) {
  StateAssignResult r;
  Stopwatch sw;
  r.machine = input_fsm;
  if (opt.minimize_states_first) {
    StateMinimizeResult sm = minimize_states(input_fsm);
    r.machine = std::move(sm.fsm);
    r.states_merged = sm.merged;
  }
  const Fsm& fsm = r.machine;
  r.derived = derive_face_constraints(fsm);
  r.derive_ms = sw.elapsed_ms();

  sw.restart();
  switch (opt.assigner) {
    case Assigner::kPicola:
      r.encoding = picola_encode(r.derived.set, opt.picola).encoding;
      break;
    case Assigner::kNovaILike: {
      NovaLikeOptions no;
      r.encoding = nova_like_encode(r.derived.set, no).encoding;
      break;
    }
    case Assigner::kNovaIoLike: {
      NovaLikeOptions no;
      no.adjacency = next_state_adjacency(fsm);
      r.encoding = nova_like_encode(r.derived.set, no).encoding;
      break;
    }
    case Assigner::kEncLike: {
      EncLikeOptions eo;
      r.encoding = enc_like_encode(r.derived.set, eo).encoding;
      break;
    }
    case Assigner::kSequential:
      r.encoding = sequential_encoding(fsm.num_states());
      break;
    case Assigner::kRandom:
      r.encoding = random_encoding(fsm.num_states(), kRandomSeed);
      break;
  }
  r.encode_ms = sw.elapsed_ms();

  sw.restart();
  if (opt.use_symbolic_cover) {
    encode_symbolic_cover(r.derived, fsm, r.encoding, &r.encoded_onset,
                          &r.encoded_dc);
  } else {
    encode_transition_table(fsm, r.encoding, &r.encoded_onset, &r.encoded_dc);
  }
  r.minimized = esp::minimize_cover(r.encoded_onset, r.encoded_dc);
  r.minimize_ms = sw.elapsed_ms();

  r.pla = Pla::from_cover(r.minimized);
  r.product_terms = r.minimized.size();
  r.area = r.pla.area();
  return r;
}

std::string verify_against_fsm(const Fsm& fsm, const Encoding& enc,
                               const Cover& onset, const Cover& dcset,
                               int steps, uint64_t seed) {
  const CubeSpace& s = onset.space();
  const int ni = fsm.num_inputs;
  const int nv = enc.num_bits;
  const int ov = s.output_var();
  std::mt19937_64 rng(seed);
  FsmSimulator sim(fsm);

  for (int step = 0; step < steps; ++step) {
    std::vector<int> bits(static_cast<size_t>(ni));
    for (int& b : bits) b = static_cast<int>(rng() % 2);
    int present = sim.state();
    SimStep golden = sim.step(bits);
    if (!golden.matched) {
      sim.set_state(static_cast<int>(rng() % static_cast<uint64_t>(fsm.num_states())));
      continue;  // unspecified input: nothing to compare
    }

    // Evaluate the encoded cover at (inputs, code(present)).
    std::vector<int> values(static_cast<size_t>(s.num_vars() - 1));
    for (int v = 0; v < ni; ++v) values[static_cast<size_t>(v)] = bits[static_cast<size_t>(v)];
    uint32_t pcode = enc.code(present);
    for (int b = 0; b < nv; ++b)
      values[static_cast<size_t>(ni + b)] = static_cast<int>((pcode >> b) & 1u);

    auto asserted = [&](const Cover& f, int part) {
      for (const Cube& c : f.cubes()) {
        bool hit = true;
        for (int v = 0; v < s.num_vars() - 1; ++v) {
          if (!c.test(s, v, values[static_cast<size_t>(v)])) {
            hit = false;
            break;
          }
        }
        if (hit && c.test(s, ov, part)) return true;
      }
      return false;
    };

    // Next-state bits.
    if (!golden.free_next) {
      uint32_t want = enc.code(golden.next_state);
      for (int b = 0; b < nv; ++b) {
        bool bit_on = asserted(onset, b);
        bool bit_dc = asserted(dcset, b);
        bool want_on = ((want >> b) & 1u) != 0;
        if (!bit_dc && bit_on != want_on)
          return "state " + fsm.state_names[static_cast<size_t>(present)] +
                 ": next-state bit " + std::to_string(b) + " mismatch";
      }
    }
    // Primary outputs.
    for (int o = 0; o < fsm.num_outputs; ++o) {
      char spec = golden.output[static_cast<size_t>(o)];
      if (spec == '-') continue;
      bool bit_on = asserted(onset, nv + o);
      bool bit_dc = asserted(dcset, nv + o);
      if (bit_dc) continue;
      if (bit_on != (spec == '1'))
        return "state " + fsm.state_names[static_cast<size_t>(present)] +
               ": output " + std::to_string(o) + " mismatch";
    }
  }
  return "";
}

}  // namespace picola
