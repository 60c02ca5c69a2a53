// Deterministic random number generation.
//
// Every stochastic element of the simulation (the BLE capture trial) draws
// from an Rng seeded by the experiment, so runs are reproducible bit-for-bit.
//
// The generator is splitmix64 over a counter: draw k (counting from 0) of a
// stream seeded with s is the splitmix64 finalizer of s + (k + 1)·γ. The
// whole state is that one 64-bit counter, so a stream costs 8 bytes and its
// position is recoverable as a draw count (draws_since). The distributions
// are written out here rather than taken from <random>, whose distribution
// algorithms are left to the standard library: a stream gives the same
// values under every compiler and library.
#pragma once

#include <cstdint>

#include "common/hash.h"

namespace omni {

class Rng {
 public:
  /// The Weyl increment γ (2⁶⁴ divided by the golden ratio, made odd).
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit draw.
  std::uint64_t next() {
    const std::uint64_t x = state_;
    state_ += kGamma;
    return splitmix64(x);  // finalizer of x + γ
  }

  /// Uniform double in [0, 1): the top 53 bits of a draw, scaled by 2⁻⁵³.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive (lo <= hi), unbiased: draws below
  /// 2⁶⁴ mod span are rejected, so every residue is equally likely.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // all 2⁶⁴ values
    const std::uint64_t reject_below = (0 - span) % span;      // 2⁶⁴ mod span
    std::uint64_t x = next();
    while (x < reject_below) x = next();
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     x % span);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Draws taken since this stream was seeded with `seed`: the counter is
  /// seed + draws·γ, and γ is odd, so multiplying by its inverse mod 2⁶⁴
  /// recovers the count exactly.
  std::uint64_t draws_since(std::uint64_t seed) const {
    return (state_ - seed) * kGammaInverse;
  }

 private:
  static constexpr std::uint64_t kGammaInverse = 0xf1de83e19937733dull;
  static_assert(kGamma * kGammaInverse == 1, "γ⁻¹ mod 2⁶⁴");

  std::uint64_t state_;
};

static_assert(sizeof(Rng) <= 16, "a per-owner stream must stay a counter");

}  // namespace omni
