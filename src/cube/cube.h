#pragma once
// Positional-notation cube over a CubeSpace.
//
// A cube stores one bit per part of every variable: bit set means the part
// (value) is present in the literal.  A full literal (all parts set) is a
// don't-care on that variable; an empty literal makes the cube empty.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cube/space.h"

namespace picola {

/// One product term in positional (multi-valued) cube notation.
///
/// Cubes are plain bit vectors; operations that need variable structure
/// take the CubeSpace as a parameter.  All cubes passed to an operation
/// must belong to the same space — this is asserted, not checked at
/// runtime in release builds.
///
/// Up to kInlineWords words are stored in the cube itself, so copying or
/// combining cubes of up to 192 parts allocates nothing; wider cubes keep
/// their words on the heap.  docs/ALGORITHM.md ("Cube kernel") gives the
/// widths this capacity was chosen from.
class Cube {
 public:
  static constexpr int kInlineWords = 3;

  Cube() = default;
  Cube(const Cube& o);
  Cube(Cube&& o) noexcept;
  Cube& operator=(const Cube& o);
  Cube& operator=(Cube&& o) noexcept;
  ~Cube() {
    if (on_heap()) delete[] heap_;
  }

  /// All-zero cube (empty literal in every variable).  Rarely useful on its
  /// own; mostly a building block.
  static Cube zeros(const CubeSpace& s);

  /// Universe cube: every part of every variable set (all don't-cares).
  static Cube full(const CubeSpace& s);

  /// Cube covering exactly one minterm; `values[v]` selects the part of
  /// variable `v`.
  static Cube minterm(const CubeSpace& s, const std::vector<int>& values);

  int num_words() const { return n_; }
  uint64_t word(int i) const { return data()[i]; }
  std::span<const uint64_t> words() const {
    return {data(), static_cast<size_t>(n_)};
  }
  std::span<uint64_t> words() { return {data(), static_cast<size_t>(n_)}; }

  bool test(const CubeSpace& s, int var, int part) const {
    int b = s.offset(var) + part;
    return (data()[b >> 6] >> (b & 63)) & 1u;
  }
  void set(const CubeSpace& s, int var, int part, bool value = true) {
    int b = s.offset(var) + part;
    uint64_t mask = uint64_t{1} << (b & 63);
    if (value)
      data()[b >> 6] |= mask;
    else
      data()[b >> 6] &= ~mask;
  }

  /// Set every part of `var`.
  void set_var_full(const CubeSpace& s, int var);
  /// Clear every part of `var`.
  void clear_var(const CubeSpace& s, int var);

  /// Number of parts set in `var`'s literal.
  int var_popcount(const CubeSpace& s, int var) const;
  bool var_full(const CubeSpace& s, int var) const {
    const uint64_t* w = data();
    for (const CubeSpace::WordMask& e : s.var_words(var))
      if ((w[e.word] & e.mask) != e.mask) return false;
    return true;
  }
  bool var_empty(const CubeSpace& s, int var) const {
    const uint64_t* w = data();
    for (const CubeSpace::WordMask& e : s.var_words(var))
      if (w[e.word] & e.mask) return false;
    return true;
  }

  /// --- Binary-variable helpers (var must have two parts) ---
  /// Value of a binary variable: 0, 1, or 2 for don't-care ('-'), 3 for
  /// empty.
  int binary_value(const CubeSpace& s, int var) const;
  /// Set a binary variable to 0, 1 or (value==2) don't-care.
  void set_binary(const CubeSpace& s, int var, int value);

  /// True when this cube's parts are a superset of `other`'s — i.e. this
  /// cube contains (covers) `other`.
  bool contains(const Cube& other) const;

  /// True when every part of every variable is set (the universe cube).
  bool is_full(const CubeSpace& s) const;

  /// True when some variable's literal is empty (the cube denotes no
  /// minterm).
  bool is_empty(const CubeSpace& s) const;

  /// Number of variables in which the two cubes' literals are disjoint.
  /// distance == 0 means the cubes intersect.
  int distance(const Cube& other, const CubeSpace& s) const;

  /// distance(other, s) == 0, stopping at the first disjoint variable.
  bool intersects(const Cube& other, const CubeSpace& s) const;

  /// Part-wise AND.  The result may be an empty cube (check is_empty()).
  Cube intersect(const Cube& other) const;

  /// Part-wise OR: smallest cube containing both.
  Cube supercube(const Cube& other) const;

  /// ESPRESSO cofactor of this cube against `c`; nullopt when the cubes do
  /// not intersect.  Result has, in every variable, `this | ~c`.
  std::optional<Cube> cofactor(const Cube& c, const CubeSpace& s) const;

  /// Number of minterms this cube covers (product of literal popcounts);
  /// saturates like CubeSpace::num_minterms().
  uint64_t num_minterms(const CubeSpace& s) const;

  /// True when the cube covers the given minterm.
  bool covers_minterm(const CubeSpace& s, const std::vector<int>& values) const;

  /// Word equality, and lexicographic order on the raw words (a shorter
  /// word list that is a prefix of a longer one orders first); used for
  /// canonicalisation and as the sort tie-break in ESPRESSO.
  bool operator==(const Cube& o) const;
  bool operator!=(const Cube& o) const { return !(*this == o); }
  bool operator<(const Cube& o) const;

  /// Printable form: binary variables as 0/1/-, multi-valued variables as
  /// a part bitstring, variables separated by spaces.
  std::string to_string(const CubeSpace& s) const;

 private:
  /// A cube of `words` words, copied from `src` (zeroed when null).
  Cube(int words, const uint64_t* src);

  bool on_heap() const { return n_ > kInlineWords; }
  uint64_t* data() { return on_heap() ? heap_ : inline_.data(); }
  const uint64_t* data() const { return on_heap() ? heap_ : inline_.data(); }

  int n_ = 0;
  /// inline_ is the active member while n_ <= kInlineWords; its unused
  /// tail words stay zero, so an inline cube copies as one array.
  union {
    std::array<uint64_t, kInlineWords> inline_{};
    uint64_t* heap_;
  };
};

}  // namespace picola
