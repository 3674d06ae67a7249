#pragma once
// NOVA-like baseline: greedy face embedding at minimum code length.
//
// Reimplementation of the *objective* the paper ascribes to conventional
// tools such as NOVA's hybrid algorithms: maximise the (weighted) number of
// fully satisfied face constraints; infeasible or skipped constraints get
// no special treatment.  Constraints are processed in weight order; each is
// embedded, when possible, onto a free subcube (respecting symbols placed
// by earlier constraints), whose leftover cells are then blocked for every
// other symbol.  The "io" flavour follows with a pairwise-swap pass that
// pulls frequently co-occurring next states towards adjacent codes — a
// stand-in for NOVA's output-aware io-hybrid.

#include <cstdint>
#include <vector>

#include "constraints/face_constraint.h"
#include "encoders/encoding.h"

namespace picola {

/// A symmetric "keep these two symbols close" preference with a weight;
/// used by the io flavour (built from next-state co-occurrence).
struct AdjacencyPreference {
  int a = 0;
  int b = 0;
  double weight = 1.0;
};

/// Order in which the greedy embedder processes constraints.
enum class EmbedOrder {
  kWeightDesc,  ///< heaviest first, smaller first among equals (default)
  kSizeDesc,    ///< biggest faces first (pairs attach around them)
  kSizeAsc,     ///< smallest faces first
};

struct NovaLikeOptions {
  int num_bits = 0;  ///< 0 = minimum length
  EmbedOrder order = EmbedOrder::kWeightDesc;
  /// Try the output-aware swap pass with these preferences (io flavour).
  std::vector<AdjacencyPreference> adjacency;
};

struct NovaLikeResult {
  Encoding encoding;
  int embedded_constraints = 0;  ///< constraints successfully embedded
  int skipped_constraints = 0;
};

/// Throws std::invalid_argument for a num_bits Encoding::resolve_bits
/// refuses.
NovaLikeResult nova_like_encode(const ConstraintSet& cs,
                                const NovaLikeOptions& opt = {});

}  // namespace picola
