#pragma once
// Exact two-level minimisation (the QM / espresso-exact flow):
// generate all prime implicants by recursive complementation-free
// expansion (unate-recursive prime generation), extract essentials, and
// solve the remaining covering problem by branch and bound.
//
// Intended for small functions (tests, the constraint-evaluation oracle,
// and the exact column of the ablation benches); the covering step is
// exponential in the worst case and guarded by a node budget.

#include <optional>

#include "cube/cover.h"

namespace picola::esp {

/// All prime implicants of the function (onset F, dc-set D).
Cover all_primes(const Cover& F, const Cover& D);

/// A minimum-cardinality prime cover of (F, D), or nullopt when the space
/// has more than 2^20 minterms or the search exhausts its budget of a
/// million branch-and-bound nodes.
std::optional<Cover> exact_minimize(const Cover& F, const Cover& D);

}  // namespace picola::esp
