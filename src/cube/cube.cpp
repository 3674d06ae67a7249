#include "cube/cube.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

namespace picola {

namespace {
/// True when the literals of variable `v` in cubes `a` and `b` share no
/// part.
bool disjoint_in(const uint64_t* a, const uint64_t* b, const CubeSpace& s,
                 int v) {
  for (const CubeSpace::WordMask& e : s.var_words(v))
    if (a[e.word] & b[e.word] & e.mask) return false;
  return true;
}
}  // namespace

Cube::Cube(int words, const uint64_t* src) : n_(words) {
  if (on_heap()) heap_ = new uint64_t[static_cast<size_t>(n_)];
  uint64_t* w = data();
  if (src)
    std::copy_n(src, n_, w);
  else
    std::fill_n(w, n_, uint64_t{0});
}

Cube::Cube(const Cube& o) : n_(o.n_) {
  if (o.on_heap()) {
    heap_ = new uint64_t[static_cast<size_t>(n_)];
    std::copy_n(o.heap_, n_, heap_);
  } else {
    inline_ = o.inline_;
  }
}

Cube::Cube(Cube&& o) noexcept : n_(o.n_) {
  if (o.on_heap()) {
    heap_ = o.heap_;
    o.inline_ = {};
  } else {
    inline_ = o.inline_;
  }
  o.n_ = 0;
}

Cube& Cube::operator=(const Cube& o) {
  if (this == &o) return *this;
  if (!o.on_heap()) {
    if (on_heap()) delete[] heap_;
    inline_ = o.inline_;
  } else if (on_heap() && n_ == o.n_) {
    std::copy_n(o.heap_, n_, heap_);  // reuse the buffer
  } else {
    uint64_t* p = new uint64_t[static_cast<size_t>(o.n_)];
    std::copy_n(o.heap_, o.n_, p);
    if (on_heap()) delete[] heap_;
    heap_ = p;
  }
  n_ = o.n_;
  return *this;
}

Cube& Cube::operator=(Cube&& o) noexcept {
  if (this == &o) return *this;
  if (on_heap()) delete[] heap_;
  if (o.on_heap()) {
    heap_ = o.heap_;
    o.inline_ = {};
  } else {
    inline_ = o.inline_;
  }
  n_ = o.n_;
  o.n_ = 0;
  return *this;
}

Cube Cube::zeros(const CubeSpace& s) { return Cube(s.num_words(), nullptr); }

Cube Cube::full(const CubeSpace& s) {
  return Cube(s.num_words(), s.full_words().data());
}

Cube Cube::minterm(const CubeSpace& s, const std::vector<int>& values) {
  assert(static_cast<int>(values.size()) == s.num_vars());
  Cube c = zeros(s);
  for (int v = 0; v < s.num_vars(); ++v) {
    assert(values[v] >= 0 && values[v] < s.parts(v));
    c.set(s, v, values[v]);
  }
  return c;
}

void Cube::set_var_full(const CubeSpace& s, int var) {
  uint64_t* w = data();
  for (const CubeSpace::WordMask& e : s.var_words(var)) w[e.word] |= e.mask;
}

void Cube::clear_var(const CubeSpace& s, int var) {
  uint64_t* w = data();
  for (const CubeSpace::WordMask& e : s.var_words(var)) w[e.word] &= ~e.mask;
}

int Cube::var_popcount(const CubeSpace& s, int var) const {
  const uint64_t* w = data();
  int n = 0;
  for (const CubeSpace::WordMask& e : s.var_words(var))
    n += std::popcount(w[e.word] & e.mask);
  return n;
}

int Cube::binary_value(const CubeSpace& s, int var) const {
  assert(s.is_binary(var));
  bool p0 = test(s, var, 0);
  bool p1 = test(s, var, 1);
  if (p0 && p1) return 2;
  if (p1) return 1;
  if (p0) return 0;
  return 3;
}

void Cube::set_binary(const CubeSpace& s, int var, int value) {
  assert(s.is_binary(var));
  set(s, var, 0, value == 0 || value == 2);
  set(s, var, 1, value == 1 || value == 2);
}

bool Cube::contains(const Cube& other) const {
  const uint64_t* a = data();
  const uint64_t* b = other.data();
  for (int w = 0; w < n_; ++w)
    if (b[w] & ~a[w]) return false;
  return true;
}

bool Cube::is_full(const CubeSpace& s) const {
  std::span<const uint64_t> full = s.full_words();
  return std::equal(full.begin(), full.end(), data());
}

bool Cube::is_empty(const CubeSpace& s) const {
  for (int v = 0; v < s.num_vars(); ++v)
    if (var_empty(s, v)) return true;
  return false;
}

int Cube::distance(const Cube& other, const CubeSpace& s) const {
  int d = 0;
  for (int v = 0; v < s.num_vars(); ++v)
    d += disjoint_in(data(), other.data(), s, v);
  return d;
}

bool Cube::intersects(const Cube& other, const CubeSpace& s) const {
  for (int v = 0; v < s.num_vars(); ++v)
    if (disjoint_in(data(), other.data(), s, v)) return false;
  return true;
}

Cube Cube::intersect(const Cube& other) const {
  Cube r = *this;
  uint64_t* w = r.data();
  const uint64_t* b = other.data();
  for (int i = 0; i < n_; ++i) w[i] &= b[i];
  return r;
}

Cube Cube::supercube(const Cube& other) const {
  Cube r = *this;
  uint64_t* w = r.data();
  const uint64_t* b = other.data();
  for (int i = 0; i < n_; ++i) w[i] |= b[i];
  return r;
}

std::optional<Cube> Cube::cofactor(const Cube& c, const CubeSpace& s) const {
  if (!intersects(c, s)) return std::nullopt;
  const uint64_t* full = s.full_words().data();
  const uint64_t* cw = c.data();
  Cube r = *this;
  uint64_t* w = r.data();
  for (int i = 0; i < n_; ++i) w[i] |= full[i] & ~cw[i];
  return r;
}

uint64_t Cube::num_minterms(const CubeSpace& s) const {
  constexpr uint64_t kCap = uint64_t{1} << 62;
  uint64_t n = 1;
  for (int v = 0; v < s.num_vars(); ++v) {
    uint64_t p = static_cast<uint64_t>(var_popcount(s, v));
    if (p == 0) return 0;
    if (n > kCap / p) return kCap;
    n *= p;
  }
  return n;
}

bool Cube::covers_minterm(const CubeSpace& s,
                          const std::vector<int>& values) const {
  assert(static_cast<int>(values.size()) == s.num_vars());
  for (int v = 0; v < s.num_vars(); ++v)
    if (!test(s, v, values[v])) return false;
  return true;
}

bool Cube::operator==(const Cube& o) const {
  return n_ == o.n_ && std::equal(data(), data() + n_, o.data());
}

bool Cube::operator<(const Cube& o) const {
  return std::lexicographical_compare(data(), data() + n_, o.data(),
                                      o.data() + o.n_);
}

std::string Cube::to_string(const CubeSpace& s) const {
  std::ostringstream os;
  for (int v = 0; v < s.num_vars(); ++v) {
    if (v) os << ' ';
    if (s.is_binary(v)) {
      static const char* sym[] = {"0", "1", "-", "~"};
      os << sym[binary_value(s, v)];
    } else {
      for (int p = 0; p < s.parts(v); ++p) os << (test(s, v, p) ? '1' : '0');
    }
  }
  return os.str();
}

}  // namespace picola
