// Deterministic random number generation.
//
// Every stochastic element of the simulation (BLE scan-capture, jitter) draws
// from an Rng seeded by the experiment, so runs are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>

namespace omni {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  std::mt19937_64& engine() { return engine_; }
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace omni
