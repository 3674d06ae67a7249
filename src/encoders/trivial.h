#pragma once
// Trivial reference encoders: sequential (binary counting), Gray code and
// seeded random permutations of the code set.  Used as baselines and by
// tests.  Each throws std::invalid_argument for a num_bits
// Encoding::resolve_bits refuses.

#include <cstdint>

#include "encoders/encoding.h"

namespace picola {

/// Symbol i gets code i.
Encoding sequential_encoding(int num_symbols, int num_bits = 0);

/// Symbol i gets the i-th Gray code.
Encoding gray_encoding(int num_symbols, int num_bits = 0);

/// Deterministic random assignment of distinct codes.
Encoding random_encoding(int num_symbols, uint64_t seed, int num_bits = 0);

}  // namespace picola
