#pragma once
// CNF formula builder with cardinality encodings.
//
// Literals use the DIMACS convention throughout: variables are 1-based,
// a positive literal is the variable number and a negative literal its
// negation.  The at-most-one helper implements three classic encodings
// (pairwise, Sinz's sequential counter, and the commander encoding); the
// indicator distinctness encoding (sat/encode.h) selects one per
// reduction.  The totalizer counts for the sat backend's at-least-t
// sweep.  Every encoding introduces only implication clauses over fresh
// auxiliary variables, so any satisfying assignment of the original
// variables extends to one of the augmented formula.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace picola::sat {

/// A CNF formula: `num_vars` variables (1..num_vars) and a clause list.
struct Cnf {
  int num_vars = 0;
  std::vector<std::vector<int>> clauses;

  /// Allocate a fresh variable and return its (positive) literal.
  int new_var() { return ++num_vars; }

  /// Append one clause.  Literals must be non-zero and within num_vars;
  /// violations are reported by validate(), not checked here (hot path).
  void add_clause(std::vector<int> lits) { clauses.push_back(std::move(lits)); }

  long num_clauses() const { return static_cast<long>(clauses.size()); }

  /// "" when every clause is non-empty with in-range, non-zero literals.
  std::string validate() const;
};

/// Cardinality-constraint encoding family (Zhou's comparison).
enum class CardEncoding {
  kPairwise,    ///< binomial: one clause per forbidden subset
  kSequential,  ///< Sinz sequential counter (auxiliary register chain)
  kCommander,   ///< recursive commander variables (groups of 3)
};

const char* card_encoding_name(CardEncoding e);
std::optional<CardEncoding> parse_card_encoding(std::string_view name);

/// At most one of `lits` is true.  kCommander recurses over group
/// commanders; kSequential uses the Sinz register chain; kPairwise emits
/// all O(n^2) binary clauses.
void add_at_most_one(Cnf& cnf, const std::vector<int>& lits, CardEncoding e);

/// Bailleux–Boutaouche totalizer over `lits`, counting direction only:
/// returns outputs o[0..n-1] with clauses forcing o[j] whenever at least
/// j+1 of `lits` are true.  Assuming ¬o[c] therefore caps the true count
/// at c — one totalizer supports every cardinality bound via a single
/// assumption literal, which is what makes the sat backend's at-least-t
/// sweep incremental (O(n²) clauses once instead of a fresh counter per
/// target).  Any model of the original variables extends to the
/// auxiliaries (set o[j] = "at least j+1 true" bottom-up).
std::vector<int> add_totalizer(Cnf& cnf, const std::vector<int>& lits);

}  // namespace picola::sat
