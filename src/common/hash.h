// FNV-1a hashing, used to derive the technology-agnostic omni_address from a
// device's hardware addresses (paper §3.3).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/types.h"

namespace omni {

/// 64-bit FNV-1a over a byte span.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// splitmix64's finalizer alone: two multiply-xorshift rounds, a fast,
/// high-quality avalanche of one 64-bit word. For keys that are already
/// spread over the word (the world's packed cell keys, CrowdChurn's
/// weighted sums).
constexpr std::uint64_t splitmix64_finalize(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// splitmix64: the finalizer of x + γ, γ = 0x9e3779b97f4a7c15. Used wherever
/// a single integer key needs uniform bucket spread (the peer-table
/// open-addressing probe), as the output function of the simulator's random
/// streams (common/rng.h), and for the stateless draws of the manager's
/// jitter and the fault plan.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return splitmix64_finalize(x + 0x9e3779b97f4a7c15ull);
}

/// 64-bit FNV-1a over a string.
std::uint64_t fnv1a64(std::string_view s);

/// Derive the omni_address of a device from its per-technology hardware
/// addresses. The result is never zero (zero is reserved for "invalid").
OmniAddress derive_omni_address(const BleAddress& ble, const MeshAddress& mesh);

}  // namespace omni
