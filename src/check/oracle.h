#pragma once
// Brute-force exact oracle for small instances (n <= 8 at minimum code
// length), in the spirit of the exhaustive small-instance validation used
// for SAT cardinality encodings: enumerate every encoding up to column
// complementation (symbol 0 pinned to code 0 — complementing a column
// XORs all codes with a mask, preserving faces, satisfaction and SOP cube
// counts), and record the ground truth that picola_encode and
// classify_infeasible are differential-tested against:
//
//  * which constraints are satisfiable at all (individually),
//  * the true maximum number of simultaneously satisfiable constraints,
//    with a witness encoding,
//  * optionally the minimum espresso-evaluated total cube count, with a
//    witness encoding.
//
// It is also the exact encoder (`picola encode --algorithm exact`,
// bench/encoder_comparison): the witnesses are optimal encodings.
//
// satisfiable_with_prefix() answers the sharper mid-run question — can a
// constraint still be satisfied once the first t columns are committed? —
// exactly: member completions are enumerated, and the non-members are
// placed by a per-prefix pigeonhole argument (codes extending different
// prefixes are disjoint, so distinct out-of-face codes exist iff every
// prefix class has enough room).  classify_infeasible must never flag a
// constraint for which this returns true.

#include <cstdint>

#include "constraints/face_constraint.h"
#include "encoders/encoding.h"

namespace picola::check {

/// The candidate cap the exact encoder runs the oracle with.
inline constexpr long kExactEncoderCandidates = 2'000'000;

struct OracleOptions {
  /// Refuse instances whose pinned enumeration would exceed this many
  /// candidate encodings (8 symbols in 3 bits = 5040).
  long max_candidates = 200'000;
  /// Also espresso-evaluate every candidate to find the minimum total
  /// cube count (much slower; keep to n <= 5 in hot loops).
  bool min_cubes = false;
};

struct OracleResult {
  /// Bit k set when constraint k alone is satisfiable by some encoding.
  uint64_t satisfiable_mask = 0;
  /// Maximum simultaneously satisfiable constraint count, with a witness
  /// subset (as a bit mask) achieving it and the first encoding in
  /// enumeration order that does.
  int max_satisfied = 0;
  uint64_t best_satisfied_mask = 0;
  Encoding max_satisfied_encoding;
  /// Minimum total espresso cubes over all encodings, and the first
  /// encoding in enumeration order that reaches it (min_cubes only).
  int min_total_cubes = 0;
  Encoding min_cubes_encoding;
  long candidates = 0;  ///< encodings enumerated
};

/// Exhaustive ground truth over every nv-bit encoding of the set's
/// symbols, up to column complementation, enumerated depth first with
/// symbol 1's code varying slowest.  nv = 0 picks the minimum length.
/// Requires a validated set with at most 64 constraints; throws
/// std::invalid_argument for a length Encoding::resolve_bits refuses,
/// nv above 20, or a search space over max_candidates.
OracleResult oracle_solve(const ConstraintSet& cs, int nv = 0,
                          const OracleOptions& opt = {});

/// Exact satisfiability of one constraint under a partial encoding: true
/// iff the remaining nv - fixed_cols bits of every symbol can be chosen
/// (all codes distinct, prefixes preserved) so that `c` embeds on an
/// intruder-free face.  `prefixes[j]` holds symbol j's first fixed_cols
/// bits (LSB-first, as built by picola_encode).
bool satisfiable_with_prefix(const FaceConstraint& c, int num_symbols, int nv,
                             const std::vector<uint32_t>& prefixes,
                             int fixed_cols);

}  // namespace picola::check
