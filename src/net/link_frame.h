// Minimal link-level framing used by technology plugins on broadcast media.
//
// Packed structs carry the *source* omni_address but no destination; on a
// broadcast channel (BLE advertisements, WiFi multicast) a directed data
// send needs a link-level destination so non-addressees can drop the frame
// without involving their manager. Frames:
//
//   [0x00] [packed...]                        broadcast (beacons, context)
//   [0x01] [raw destination address] [packed...]  unicast-over-broadcast
//
// The destination is the technology's own address type (6 bytes on BLE,
// 8 bytes on WiFi-Mesh).
#pragma once

#include <optional>
#include <span>

#include "common/byte_buffer.h"
#include "common/types.h"

namespace omni {

inline constexpr std::uint8_t kFrameBroadcast = 0x00;
inline constexpr std::uint8_t kFrameUnicast = 0x01;
/// Broadcast frame carrying bulk *data* rather than an advertisement
/// (baselines use it for multicast dissemination).
inline constexpr std::uint8_t kFrameBroadcastData = 0x02;
/// Aggregate broadcast frame: a sequence of u32-length-prefixed inner
/// payloads coalesced into one transmission (beacon aggregation — the
/// paper's "consolidating context into fewer beacons").
inline constexpr std::uint8_t kFrameAggregate = 0x03;

Bytes frame_aggregate(const std::vector<Bytes>& payloads);
/// Split an aggregate frame into its inner payloads (empty if malformed or
/// not an aggregate frame).
std::vector<Bytes> unframe_aggregate(std::span<const std::uint8_t> frame);

inline Bytes frame_broadcast_data(const Bytes& packed) {
  Bytes out;
  out.reserve(packed.size() + 1);
  out.push_back(kFrameBroadcastData);
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

inline Bytes frame_broadcast(const Bytes& packed) {
  Bytes out;
  out.reserve(packed.size() + 1);
  out.push_back(kFrameBroadcast);
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

inline Bytes frame_unicast_ble(const BleAddress& dest, const Bytes& packed) {
  Bytes out;
  out.reserve(packed.size() + 7);
  out.push_back(kFrameUnicast);
  out.insert(out.end(), dest.octets.begin(), dest.octets.end());
  out.insert(out.end(), packed.begin(), packed.end());
  return out;
}

inline Bytes frame_unicast_mesh(const MeshAddress& dest, const Bytes& packed) {
  ByteWriter w(packed.size() + 9);
  w.u8(kFrameUnicast);
  w.u64(dest.value);
  w.raw(packed);
  return std::move(w).take();
}

/// Unframe a BLE frame addressed to `self` (or broadcast). nullopt if the
/// frame is malformed or addressed elsewhere.
std::optional<Bytes> unframe_ble(std::span<const std::uint8_t> frame,
                                 const BleAddress& self);

/// Unframe a mesh multicast frame addressed to `self` (or broadcast).
std::optional<Bytes> unframe_mesh(std::span<const std::uint8_t> frame,
                                  const MeshAddress& self);

/// Zero-copy unframe: the payload as a view into `frame`. The receive hot
/// path copies it straight into a recycled packet buffer instead of through
/// a temporary allocation. The view is valid only as long as `frame`.
std::optional<std::span<const std::uint8_t>> unframe_ble_view(
    std::span<const std::uint8_t> frame, const BleAddress& self);
std::optional<std::span<const std::uint8_t>> unframe_mesh_view(
    std::span<const std::uint8_t> frame, const MeshAddress& self);

/// Link-frame overhead for a unicast BLE frame.
inline constexpr std::size_t kBleUnicastFrameOverhead = 7;
inline constexpr std::size_t kBleBroadcastFrameOverhead = 1;
inline constexpr std::size_t kMeshUnicastFrameOverhead = 9;

}  // namespace omni
