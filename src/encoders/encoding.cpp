#include "encoders/encoding.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace picola {

int CodeCube::dim(int num_bits) const {
  return num_bits - std::popcount(care);
}

int Encoding::min_bits(int num_symbols) {
  int bits = 1;
  while ((1L << bits) < num_symbols) ++bits;  // long: no UB at bits == 31
  return bits;
}

int Encoding::resolve_bits(int num_symbols, int num_bits, const char* who,
                           bool allow_short) {
  auto fail = [who](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (num_bits < 0) fail("negative code length");
  if (num_bits > 31)
    fail("code length " + std::to_string(num_bits) + " exceeds 31 bits");
  const int nv = num_bits > 0 ? num_bits : min_bits(num_symbols);
  if (!allow_short && (1L << nv) < num_symbols)
    fail("code length " + std::to_string(nv) + " too small for " +
         std::to_string(num_symbols) + " symbols");
  return nv;
}

std::string Encoding::validate() const {
  if (static_cast<int>(codes.size()) != num_symbols)
    return "wrong number of codes";
  if (num_bits < 1 || num_bits > 31) return "bad code length";
  if ((1L << num_bits) < num_symbols) return "code length too small";
  std::vector<uint32_t> sorted = codes;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return "duplicate codes";
  for (uint32_t c : codes)
    if (c >= (uint32_t{1} << num_bits)) return "code out of range";
  return "";
}

CodeCube Encoding::supercube(const std::vector<int>& symbols) const {
  CodeCube cc;
  if (symbols.empty()) return cc;
  cc.care = (num_bits >= 32) ? ~uint32_t{0}
                             : ((uint32_t{1} << num_bits) - 1);
  cc.value = codes[static_cast<size_t>(symbols[0])];
  for (int s : symbols) {
    uint32_t diff = cc.value ^ codes[static_cast<size_t>(s)];
    cc.care &= ~diff;
  }
  cc.value &= cc.care;
  return cc;
}

std::vector<uint32_t> Encoding::unused_codes() const {
  std::vector<bool> used(size_t{1} << num_bits, false);
  for (uint32_t c : codes) used[c] = true;
  std::vector<uint32_t> out;
  for (uint32_t c = 0; c < (uint32_t{1} << num_bits); ++c)
    if (!used[c]) out.push_back(c);
  return out;
}

std::string Encoding::to_string() const {
  std::ostringstream os;
  for (int i = 0; i < num_symbols; ++i) {
    os << i << ": ";
    for (int b = num_bits - 1; b >= 0; --b) os << bit(i, b);
    os << '\n';
  }
  return os.str();
}

}  // namespace picola
