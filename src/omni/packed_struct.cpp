#include "omni/packed_struct.h"

namespace omni {

std::string to_string(PacketKind kind) {
  switch (kind) {
    case PacketKind::kAddressBeacon:
      return "address_beacon";
    case PacketKind::kContext:
      return "context";
    case PacketKind::kData:
      return "data";
    case PacketKind::kRelayed:
      return "relayed";
  }
  return "packet_kind(?)";
}

PackedStruct PackedStruct::address_beacon(OmniAddress source,
                                          AddressBeaconInfo info) {
  PackedStruct p;
  p.kind = PacketKind::kAddressBeacon;
  p.source = source;
  p.beacon = info;
  return p;
}

PackedStruct PackedStruct::context(OmniAddress source, Bytes payload) {
  PackedStruct p;
  p.kind = PacketKind::kContext;
  p.source = source;
  p.payload = std::move(payload);
  return p;
}

PackedStruct PackedStruct::data(OmniAddress source, Bytes payload) {
  PackedStruct p;
  p.kind = PacketKind::kData;
  p.source = source;
  p.payload = std::move(payload);
  return p;
}

PackedStruct PackedStruct::relayed(OmniAddress original_source, Bytes inner,
                                   std::uint8_t hops) {
  PackedStruct p;
  p.kind = PacketKind::kRelayed;
  p.source = original_source;
  p.payload = std::move(inner);
  p.hops_remaining = hops;
  return p;
}

std::size_t PackedStruct::encoded_size() const {
  if (kind == PacketKind::kAddressBeacon) {
    return kPackedHeaderSize + kAddressBeaconPayloadSize;
  }
  if (kind == PacketKind::kRelayed) {
    return kPackedHeaderSize + 1 + payload.size();
  }
  return kPackedHeaderSize + payload.size();
}

Bytes PackedStruct::encode() const {
  ByteWriter w(encoded_size());
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(source.value);
  if (kind == PacketKind::kAddressBeacon) {
    w.u64(beacon.mesh.value);
    w.raw(std::span<const std::uint8_t>(beacon.ble.octets));
  } else if (kind == PacketKind::kRelayed) {
    w.u8(hops_remaining);
    w.raw(payload);
  } else {
    w.raw(payload);
  }
  return std::move(w).take();
}

Result<PackedView> PackedStruct::decode(BytesView wire) {
  using R = Result<PackedView>;
  ByteReader r(wire);
  auto kind_byte = r.u8();
  if (!kind_byte) return R::error("empty packet");
  if (kind_byte.value() > static_cast<std::uint8_t>(PacketKind::kRelayed)) {
    return R::error("unknown packet kind");
  }
  PackedView out;
  out.kind = static_cast<PacketKind>(kind_byte.value());
  auto source = r.u64();
  if (!source) return R::error("truncated omni_address");
  out.source = OmniAddress{source.value()};
  if (!out.source.is_valid()) return R::error("invalid (zero) omni_address");
  if (out.kind == PacketKind::kAddressBeacon) {
    auto mesh = r.u64();
    if (!mesh) return R::error("truncated mesh address");
    out.beacon.mesh = MeshAddress{mesh.value()};
    if (!r.raw_into(out.beacon.ble.octets)) {
      return R::error("truncated BLE address");
    }
    if (!r.exhausted()) return R::error("trailing bytes after beacon");
    return out;
  }
  if (out.kind == PacketKind::kRelayed) {
    auto hops = r.u8();
    if (!hops) return R::error("truncated hop budget");
    out.hops_remaining = hops.value();
  }
  out.payload = wire.last(r.remaining());
  return out;
}

}  // namespace omni
