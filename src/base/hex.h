#pragma once
// 64-bit values as hex text: the wire form of content hashes,
// fingerprints, trace ids and span ids.

#include <cstdint>
#include <cstdio>
#include <string>

namespace picola {

/// 16 lowercase hex digits.
inline std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// 1-16 hex digits of either case -> *out; false on anything else.
inline bool parse_hex64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char ch : s) {
    int d;
    if (ch >= '0' && ch <= '9') d = ch - '0';
    else if (ch >= 'a' && ch <= 'f') d = ch - 'a' + 10;
    else if (ch >= 'A' && ch <= 'F') d = ch - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

}  // namespace picola
