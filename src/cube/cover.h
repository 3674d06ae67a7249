#pragma once
// A cover: a set of cubes over a shared CubeSpace (a sum-of-products form).

#include <functional>
#include <string>
#include <vector>

#include "cube/cube.h"
#include "cube/space.h"

namespace picola {

/// Sum-of-products form: an ordered list of cubes over one CubeSpace.
/// The space is carried by value; copying it shares its layout and
/// allocates nothing.
class Cover {
 public:
  Cover() = default;
  explicit Cover(CubeSpace space) : space_(std::move(space)) {}
  Cover(CubeSpace space, std::vector<Cube> cubes)
      : space_(std::move(space)), cubes_(std::move(cubes)) {}

  const CubeSpace& space() const { return space_; }
  int size() const { return static_cast<int>(cubes_.size()); }
  bool empty() const { return cubes_.empty(); }

  const Cube& operator[](int i) const { return cubes_[static_cast<size_t>(i)]; }
  Cube& operator[](int i) { return cubes_[static_cast<size_t>(i)]; }

  const std::vector<Cube>& cubes() const { return cubes_; }
  std::vector<Cube>& cubes() { return cubes_; }

  void add(Cube c) { cubes_.push_back(std::move(c)); }
  void clear() { cubes_.clear(); }
  void reserve(int n) { cubes_.reserve(static_cast<size_t>(n)); }

  auto begin() const { return cubes_.begin(); }
  auto end() const { return cubes_.end(); }

  /// Append all cubes of `other` (same space required).
  void append(const Cover& other);

  /// Remove cubes that denote no minterm (an empty literal in some
  /// variable).
  void remove_empty();

  /// Single-cube containment minimisation: remove every cube contained in
  /// another single cube of the cover (and duplicate cubes).
  void remove_contained();

  /// Sort cubes in descending number of don't-care parts (espresso's usual
  /// "largest first" order), breaking ties lexicographically for
  /// determinism.
  void sort_by_size_desc(const CubeSpace& s);

  /// Total number of minterms covered — computed exactly by enumerating the
  /// space, so intended for small spaces (tests only).
  uint64_t count_minterms_exact() const;

  /// True when some cube of the cover covers the minterm.
  bool covers_minterm(const std::vector<int>& values) const;

  /// Enumerate all minterms of the space, invoking `fn` with each value
  /// vector.  Intended for small spaces (tests / exact checks).
  static void for_each_minterm(const CubeSpace& s,
                               const std::function<void(const std::vector<int>&)>& fn);

  std::string to_string() const;

 private:
  CubeSpace space_;
  std::vector<Cube> cubes_;
};

}  // namespace picola
