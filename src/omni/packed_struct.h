// The omni_packed_struct (paper §3.3).
//
// Wire format, tightly packed to fit lightweight beacons:
//   byte 0        — packet kind (address beacon / context / data)
//   bytes 1..8    — the sender's 64-bit omni_address (big-endian)
//   remainder     — payload:
//       address beacon: 8 bytes WiFi-Mesh address + 6 bytes BLE address
//                       (the paper's "14 additional bytes")
//       context/data:   application bytes, opaque to Omni
//
// An address beacon therefore encodes to exactly 23 bytes — comfortably
// inside a legacy 31-byte BLE advertisement.
#pragma once

#include <cstdint>

#include "common/byte_buffer.h"
#include "common/result.h"
#include "common/types.h"

namespace omni {

enum class PacketKind : std::uint8_t {
  kAddressBeacon = 0,
  kContext = 1,
  kData = 2,
  /// A context or address beacon re-broadcast by an intermediate device
  /// (the paper's §5 multi-hop context sharing). `source` remains the
  /// ORIGINAL origin; one extra byte carries the remaining hop budget and
  /// the payload is the original encoded packet.
  kRelayed = 3,
};

std::string to_string(PacketKind kind);

/// Per-technology reachability information carried by an address beacon.
struct AddressBeaconInfo {
  MeshAddress mesh;  ///< zero if the device has no WiFi-Mesh interface
  BleAddress ble;    ///< zero if the device has no BLE interface

  bool operator==(const AddressBeaconInfo&) const = default;
};

/// A decoded omni_packed_struct that copies nothing: the fixed fields are
/// read out, and `payload` views the bytes after them in the decoded wire.
/// Valid only as long as that wire buffer.
struct PackedView {
  PacketKind kind = PacketKind::kContext;
  OmniAddress source;
  AddressBeaconInfo beacon;  ///< meaningful only for kAddressBeacon
  BytesView payload;  ///< kContext/kData: app bytes; kRelayed: inner packet
  std::uint8_t hops_remaining = 0;  ///< meaningful only for kRelayed
};

struct PackedStruct {
  PacketKind kind = PacketKind::kContext;
  OmniAddress source;
  AddressBeaconInfo beacon;  ///< meaningful only for kAddressBeacon
  Bytes payload;  ///< kContext/kData: app bytes; kRelayed: inner packet
  std::uint8_t hops_remaining = 0;  ///< meaningful only for kRelayed

  static PackedStruct address_beacon(OmniAddress source,
                                     AddressBeaconInfo info);
  static PackedStruct context(OmniAddress source, Bytes payload);
  static PackedStruct data(OmniAddress source, Bytes payload);
  /// Wrap an encoded packet for relay with `hops` further hops allowed.
  static PackedStruct relayed(OmniAddress original_source, Bytes inner,
                              std::uint8_t hops);

  /// Serialized size without encoding.
  std::size_t encoded_size() const;

  Bytes encode() const;
  /// Decode `wire` in place: the result's payload points into `wire`.
  static Result<PackedView> decode(BytesView wire);
  /// A temporary buffer would leave the result's payload dangling.
  static Result<PackedView> decode(Bytes&& wire) = delete;

  bool operator==(const PackedStruct&) const = default;
};

/// Fixed header size: kind byte + omni_address.
inline constexpr std::size_t kPackedHeaderSize = 9;
/// Payload size of an address beacon (mesh + BLE addresses).
inline constexpr std::size_t kAddressBeaconPayloadSize = 14;

}  // namespace omni
