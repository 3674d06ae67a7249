#pragma once
// Binary encodings of symbol sets and small code-cube helpers.

#include <cstdint>
#include <string>
#include <vector>

namespace picola {

/// A cube in code space, stored as (care mask, values): bit b is fixed to
/// ((value >> b) & 1) when the care bit is set, free otherwise.
struct CodeCube {
  uint32_t care = 0;
  uint32_t value = 0;

  bool contains(uint32_t code) const { return ((code ^ value) & care) == 0; }
  int dim(int num_bits) const;

  bool operator==(const CodeCube& o) const {
    return care == o.care && (value & care) == (o.value & o.care);
  }
};

/// An assignment of distinct `num_bits`-wide codes to `num_symbols`
/// symbols.  Codes are stored LSB-first: bit/column `b` of symbol `i` is
/// `(codes[i] >> b) & 1`.
struct Encoding {
  int num_symbols = 0;
  int num_bits = 0;
  std::vector<uint32_t> codes;

  int bit(int symbol, int b) const {
    return static_cast<int>((codes[static_cast<size_t>(symbol)] >> b) & 1u);
  }
  uint32_t code(int symbol) const {
    return codes[static_cast<size_t>(symbol)];
  }

  /// Minimum code length for n symbols: ceil(log2 n) (1 for n <= 2).
  static int min_bits(int num_symbols);

  /// The code length an encoder of `num_symbols` symbols runs at: the
  /// requested `num_bits`, or min_bits(num_symbols) when it is 0.  Every
  /// encoder resolves its length here.  Throws std::invalid_argument,
  /// its message prefixed "<who>: ", when the request is negative, above
  /// 31 (codes are uint32_t), or — unless `allow_short` — too short to
  /// give every symbol its own code.
  static int resolve_bits(int num_symbols, int num_bits, const char* who,
                          bool allow_short = false);

  /// "" when the encoding is structurally valid: the right number of
  /// distinct codes, each within num_bits.
  std::string validate() const;

  /// Smallest code cube containing the codes of `symbols`
  /// (super(L) in the paper).
  CodeCube supercube(const std::vector<int>& symbols) const;

  /// Codes not assigned to any symbol.
  std::vector<uint32_t> unused_codes() const;

  std::string to_string() const;
};

}  // namespace picola
