#pragma once
// The reference Solve() column: the per-symbol solver PICOLA shipped
// before the row-major gain pass (docs/ALGORITHM.md "Solve()").  After
// every flip it recomputes each candidate's gain by walking all rows of
// the constraint matrix for that one symbol, O(flips · n · r) scattered
// reads per column.  It is kept, slow on purpose, only as the
// differential oracle: picola_encode under PicolaOptions::self_check, and
// so tools/picola_fuzz and self-checked server requests, hold every
// column of the production solver to it bit for bit.

#include <cstdint>
#include <vector>

#include "check/verifier.h"
#include "constraints/constraint_matrix.h"
#include "core/picola.h"

namespace picola::check {

/// The reference's column for the same inputs as detail::solve_column.
std::vector<int> reference_solve_column(const ConstraintMatrix& m,
                                        const std::vector<uint32_t>& prefixes,
                                        int column_index,
                                        const PicolaOptions& opt);

/// `bits` against the reference's column: an empty report when they agree
/// bit for bit, else one violation naming the first symbol that differs.
VerifyReport verify_column_reference(const std::vector<int>& bits,
                                     const ConstraintMatrix& m,
                                     const std::vector<uint32_t>& prefixes,
                                     int column_index,
                                     const PicolaOptions& opt);

}  // namespace picola::check
