#include "cube/cover.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace picola {

void Cover::append(const Cover& other) {
  assert(space_ == other.space_);
  cubes_.insert(cubes_.end(), other.cubes_.begin(), other.cubes_.end());
}

void Cover::remove_empty() {
  cubes_.erase(std::remove_if(cubes_.begin(), cubes_.end(),
                              [&](const Cube& c) { return c.is_empty(space_); }),
               cubes_.end());
}

void Cover::remove_contained() {
  // Sort so that bigger cubes come first; a cube can then only be contained
  // by one appearing earlier, among the kept cubes compacted at the front.
  sort_by_size_desc(space_);
  size_t kept = 0;
  for (size_t i = 0; i < cubes_.size(); ++i) {
    bool contained = false;
    for (size_t k = 0; k < kept; ++k) {
      if (cubes_[k].contains(cubes_[i])) {
        contained = true;
        break;
      }
    }
    if (contained) continue;
    if (kept != i) cubes_[kept] = std::move(cubes_[i]);
    ++kept;
  }
  cubes_.resize(kept);
}

void Cover::sort_by_size_desc(const CubeSpace& s) {
  std::stable_sort(cubes_.begin(), cubes_.end(),
                   [&](const Cube& a, const Cube& b) {
                     uint64_t ma = a.num_minterms(s);
                     uint64_t mb = b.num_minterms(s);
                     if (ma != mb) return ma > mb;
                     return a < b;
                   });
}

void Cover::for_each_minterm(
    const CubeSpace& s, const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> vals(static_cast<size_t>(s.num_vars()), 0);
  if (s.num_vars() == 0) {
    fn(vals);
    return;
  }
  while (true) {
    fn(vals);
    int v = s.num_vars() - 1;
    while (v >= 0) {
      if (++vals[static_cast<size_t>(v)] < s.parts(v)) break;
      vals[static_cast<size_t>(v)] = 0;
      --v;
    }
    if (v < 0) break;
  }
}

uint64_t Cover::count_minterms_exact() const {
  uint64_t n = 0;
  for_each_minterm(space_, [&](const std::vector<int>& vals) {
    if (covers_minterm(vals)) ++n;
  });
  return n;
}

bool Cover::covers_minterm(const std::vector<int>& values) const {
  for (const Cube& c : cubes_)
    if (c.covers_minterm(space_, values)) return true;
  return false;
}

std::string Cover::to_string() const {
  std::ostringstream os;
  for (const Cube& c : cubes_) os << c.to_string(space_) << '\n';
  return os.str();
}

}  // namespace picola
