#pragma once
// Face (group) constraints over a set of symbols.
//
// A face constraint is a subset of symbols whose codes must span a Boolean
// subcube containing no other symbol's code (Definition in paper §2).

#include <string>
#include <vector>

namespace picola {

/// One group constraint: the sorted list of member symbol ids.
struct FaceConstraint {
  std::vector<int> members;  ///< sorted, unique
  double weight = 1.0;       ///< multiplicity in the symbolic cover
  bool is_guide = false;     ///< generated from an infeasible constraint
  int origin = -1;           ///< for guides: index of the original constraint

  int size() const { return static_cast<int>(members.size()); }
  bool contains(int symbol) const;

  /// Number of members common to both constraints: the size of the "son
  /// constraint" of §3.3.1.
  int common_members(const FaceConstraint& other) const;

  bool operator==(const FaceConstraint& o) const {
    return members == o.members;
  }

  std::string to_string() const;
};

/// A set of face constraints over `num_symbols` symbols.
struct ConstraintSet {
  int num_symbols = 0;
  std::vector<FaceConstraint> constraints;

  int size() const { return static_cast<int>(constraints.size()); }

  /// Add a constraint (members are sorted and deduplicated).  Duplicates
  /// of an existing constraint add their weight to it instead.  Constraints
  /// with fewer than 2 members or covering every symbol are ignored
  /// (they impose nothing).
  void add(std::vector<int> members, double weight = 1.0);

  /// Total number of seed dichotomies: sum over constraints of
  /// (num_symbols - |members|).
  long num_seed_dichotomies() const;

  /// "" when the set is well-formed: num_symbols >= 2 and every constraint
  /// has sorted, unique, in-range members, size in [2, num_symbols - 1],
  /// a positive finite weight, and a member list no other constraint
  /// shares.  Sets built through add() always pass; the check exists for
  /// directly-assembled sets, and is enforced by picola_encode(), the
  /// batch service (via canonicalize) and the src/check verifier so all
  /// three see the same normalised input.
  std::string validate() const;

  std::string to_string() const;
};

}  // namespace picola
