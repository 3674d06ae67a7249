#pragma once
// std::mt19937_64's exact output sequence, with its state computed on
// demand.  The standard engine seeds all 312 state words at construction
// and twists all 312 on the first draw, about 3 µs together: more than a
// whole Solve() column of a small machine, which draws only on a tie and
// usually a few times.  This engine seeds a word only once a twist reads
// it and twists a word only when a draw returns it, in the standard
// engine's order and with its arithmetic, so every draw is the standard
// engine's (tests/core/test_picola.cpp compares the two).

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace picola {

class LazyMt64 {
 public:
  explicit LazyMt64(uint64_t seed) { x_[0] = seed; }

  uint64_t operator()() {
    if (p_ == kN) p_ = 0;
    // The twist of word p_ reads words p_ + 1 and p_ + kM of the seed
    // state (in the first generation; later ones are fully seeded).
    for (const size_t need = std::min(kN, p_ + kM + 1); seeded_ < need;
         ++seeded_) {
      const uint64_t prev = x_[seeded_ - 1];
      x_[seeded_] = kF * (prev ^ (prev >> 62)) + seeded_;
    }
    const uint64_t y = (x_[p_] & kUpper) | (x_[(p_ + 1) % kN] & ~kUpper);
    x_[p_] = x_[(p_ + kM) % kN] ^ (y >> 1) ^ ((y & 1) ? kA : 0);
    uint64_t z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr uint64_t kA = 0xB5026F5AA96619E9ULL;
  static constexpr uint64_t kF = 6364136223846793005ULL;
  static constexpr uint64_t kUpper = ~uint64_t{0} << 31;

  std::array<uint64_t, kN> x_{};
  size_t seeded_ = 1;  ///< x_[0, seeded_) hold the seed state or later
  size_t p_ = 0;       ///< next word of the current generation to draw
};

}  // namespace picola
