#include "encoders/trivial.h"

#include <algorithm>
#include <numeric>
#include <random>

namespace picola {

namespace {
Encoding make_base(int num_symbols, int num_bits, const char* who) {
  Encoding e;
  e.num_symbols = num_symbols;
  e.num_bits = Encoding::resolve_bits(num_symbols, num_bits, who);
  e.codes.resize(static_cast<size_t>(num_symbols));
  return e;
}
}  // namespace

Encoding sequential_encoding(int num_symbols, int num_bits) {
  Encoding e = make_base(num_symbols, num_bits, "sequential_encoding");
  for (int i = 0; i < num_symbols; ++i)
    e.codes[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
  return e;
}

Encoding gray_encoding(int num_symbols, int num_bits) {
  Encoding e = make_base(num_symbols, num_bits, "gray_encoding");
  for (int i = 0; i < num_symbols; ++i) {
    uint32_t u = static_cast<uint32_t>(i);
    e.codes[static_cast<size_t>(i)] = u ^ (u >> 1);
  }
  return e;
}

Encoding random_encoding(int num_symbols, uint64_t seed, int num_bits) {
  Encoding e = make_base(num_symbols, num_bits, "random_encoding");
  std::vector<uint32_t> pool(size_t{1} << e.num_bits);
  std::iota(pool.begin(), pool.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(pool.begin(), pool.end(), rng);
  std::copy_n(pool.begin(), num_symbols, e.codes.begin());
  return e;
}

}  // namespace picola
