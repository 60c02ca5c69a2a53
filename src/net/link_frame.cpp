#include "net/link_frame.h"

namespace omni {

std::optional<BytesView> unframe_ble_view(BytesView frame,
                                          const BleAddress& self) {
  if (frame.empty()) return std::nullopt;
  if (frame[0] == kFrameBroadcast || frame[0] == kFrameBroadcastData) {
    return frame.subspan(1);
  }
  if (frame[0] != kFrameUnicast || frame.size() < 7) return std::nullopt;
  BleAddress dest;
  for (int i = 0; i < 6; ++i) dest.octets[i] = frame[1 + i];
  if (dest != self) return std::nullopt;
  return frame.subspan(7);
}

std::optional<BytesView> unframe_mesh_view(BytesView frame,
                                           const MeshAddress& self) {
  if (frame.empty()) return std::nullopt;
  if (frame[0] == kFrameBroadcast || frame[0] == kFrameBroadcastData) {
    return frame.subspan(1);
  }
  if (frame[0] != kFrameUnicast || frame.size() < 9) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | frame[1 + i];
  if (MeshAddress{v} != self) return std::nullopt;
  return frame.subspan(9);
}

Bytes frame_aggregate(const std::vector<Bytes>& payloads) {
  std::size_t total = 1;
  for (const Bytes& p : payloads) total += 4 + p.size();
  ByteWriter w(total);
  w.u8(kFrameAggregate);
  for (const Bytes& p : payloads) w.blob(p);
  return std::move(w).take();
}

std::vector<BytesView> unframe_aggregate(BytesView frame) {
  std::vector<BytesView> out;
  if (frame.empty() || frame[0] != kFrameAggregate) return out;
  ByteReader r(frame.subspan(1));
  while (!r.exhausted()) {
    auto len = r.u32();
    if (!len) return {};
    auto inner = r.view(len.value());
    if (!inner) return {};
    out.push_back(inner.value());
  }
  return out;
}

}  // namespace omni
