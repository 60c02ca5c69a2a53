#include <gtest/gtest.h>

#include "common/rng.h"
#include "omni/packed_struct.h"

namespace omni {
namespace {

/// The decoded view as an owning struct, to compare with what was encoded.
PackedStruct own(const PackedView& v) {
  PackedStruct p;
  p.kind = v.kind;
  p.source = v.source;
  p.beacon = v.beacon;
  p.payload.assign(v.payload.begin(), v.payload.end());
  p.hops_remaining = v.hops_remaining;
  return p;
}

TEST(PackedStructTest, AddressBeaconIs23Bytes) {
  // Paper §3.3: 1 type byte + 8 omni_address + 14 payload (8 mesh + 6 BLE).
  AddressBeaconInfo info{MeshAddress::from_node(1), BleAddress::from_node(1)};
  PackedStruct p = PackedStruct::address_beacon(OmniAddress{0x42}, info);
  EXPECT_EQ(p.encoded_size(), 23u);
  EXPECT_EQ(p.encode().size(), 23u);
}

TEST(PackedStructTest, AddressBeaconRoundTrip) {
  AddressBeaconInfo info{MeshAddress::from_node(7), BleAddress::from_node(7)};
  PackedStruct p = PackedStruct::address_beacon(OmniAddress{0xABCD}, info);
  Bytes wire = p.encode();
  auto decoded = PackedStruct::decode(wire);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(own(decoded.value()), p);
  EXPECT_EQ(decoded.value().beacon.mesh, MeshAddress::from_node(7));
  EXPECT_EQ(decoded.value().beacon.ble, BleAddress::from_node(7));
}

TEST(PackedStructTest, ContextRoundTrip) {
  PackedStruct p = PackedStruct::context(OmniAddress{1}, Bytes{9, 8, 7});
  Bytes wire = p.encode();
  auto decoded = PackedStruct::decode(wire);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().kind, PacketKind::kContext);
  EXPECT_EQ(decoded.value().source, OmniAddress{1});
  EXPECT_EQ(own(decoded.value()).payload, (Bytes{9, 8, 7}));
  // The payload is a view into the wire, right after the header.
  EXPECT_EQ(decoded.value().payload.data(), wire.data() + kPackedHeaderSize);
}

TEST(PackedStructTest, DataRoundTripEmptyPayload) {
  PackedStruct p = PackedStruct::data(OmniAddress{2}, {});
  Bytes wire = p.encode();
  auto decoded = PackedStruct::decode(wire);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().kind, PacketKind::kData);
  EXPECT_TRUE(decoded.value().payload.empty());
}

TEST(PackedStructTest, FirstByteIsKind) {
  EXPECT_EQ(PackedStruct::context(OmniAddress{1}, {}).encode()[0], 1);
  EXPECT_EQ(PackedStruct::data(OmniAddress{1}, {}).encode()[0], 2);
  EXPECT_EQ(PackedStruct::address_beacon(OmniAddress{1}, {}).encode()[0], 0);
}

TEST(PackedStructTest, RejectsUnknownKind) {
  Bytes wire = PackedStruct::context(OmniAddress{1}, Bytes{1}).encode();
  wire[0] = 9;
  EXPECT_FALSE(PackedStruct::decode(wire).is_ok());
}

TEST(PackedStructTest, RejectsZeroSourceAddress) {
  ByteWriter w;
  w.u8(1);
  w.u64(0);
  EXPECT_FALSE(PackedStruct::decode(w.bytes()).is_ok());
}

TEST(PackedStructTest, RejectsTruncatedHeader) {
  EXPECT_FALSE(PackedStruct::decode(BytesView{}).is_ok());
  const Bytes short_header{1, 2, 3};
  EXPECT_FALSE(PackedStruct::decode(short_header).is_ok());
}

TEST(PackedStructTest, RejectsMalformedBeacon) {
  Bytes wire = PackedStruct::address_beacon(
                   OmniAddress{5},
                   {MeshAddress::from_node(1), BleAddress::from_node(1)})
                   .encode();
  Bytes truncated(wire.begin(), wire.end() - 3);
  EXPECT_FALSE(PackedStruct::decode(truncated).is_ok());
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(PackedStruct::decode(padded).is_ok());
}

TEST(PackedStructTest, RelayedRoundTripViewsTheInnerPacket) {
  Bytes inner = PackedStruct::context(OmniAddress{3}, Bytes{1, 2}).encode();
  Bytes wire = PackedStruct::relayed(OmniAddress{3}, inner, 2).encode();
  auto outer = PackedStruct::decode(wire);
  ASSERT_TRUE(outer.is_ok());
  EXPECT_EQ(outer.value().kind, PacketKind::kRelayed);
  EXPECT_EQ(outer.value().hops_remaining, 2);
  EXPECT_EQ(outer.value().payload.data(), wire.data() + kPackedHeaderSize + 1);
  auto decoded_inner = PackedStruct::decode(outer.value().payload);
  ASSERT_TRUE(decoded_inner.is_ok());
  EXPECT_EQ(own(decoded_inner.value()).payload, (Bytes{1, 2}));
}

// --- Hardening: packets from the air are untrusted ----------------------------
//
// decode() hands out a view of the wire, so its bounds checks are all that
// stands between a damaged packet and an out-of-bounds read. Every
// truncation and every single-byte change of each packet kind must either
// decode to a view that lies inside the input, or fail.

/// Compared as integers: a view whose size wrapped around would pass a
/// pointer comparison.
bool inside(BytesView view, BytesView input) {
  if (view.empty()) return true;
  const auto begin = reinterpret_cast<std::uintptr_t>(input.data());
  const auto at = reinterpret_cast<std::uintptr_t>(view.data());
  return at >= begin && view.size() <= input.size() &&
         at - begin <= input.size() - view.size();
}

/// Decode `input` as the manager does, relayed inner packet included.
void check_decode(BytesView input) {
  auto decoded = PackedStruct::decode(input);
  if (!decoded.is_ok()) return;
  const PackedView& p = decoded.value();
  EXPECT_TRUE(inside(p.payload, input));
  if (p.kind == PacketKind::kAddressBeacon) {
    EXPECT_TRUE(p.payload.empty());
  }
  if (p.kind != PacketKind::kRelayed) return;
  auto inner = PackedStruct::decode(p.payload);
  if (inner.is_ok()) {
    EXPECT_TRUE(inside(inner.value().payload, input));
  }
}

TEST(PackedStructTest, EveryTruncationAndByteFlipStaysInBounds) {
  AddressBeaconInfo info{MeshAddress::from_node(4), BleAddress::from_node(4)};
  Bytes beacon = PackedStruct::address_beacon(OmniAddress{0x77}, info).encode();
  const std::vector<Bytes> wires = {
      beacon,
      PackedStruct::context(OmniAddress{0x77}, Bytes{1, 2, 3, 4}).encode(),
      PackedStruct::data(OmniAddress{0x77}, Bytes{5, 6, 7}).encode(),
      PackedStruct::relayed(OmniAddress{0x77}, beacon, 1).encode(),
  };
  for (const Bytes& wire : wires) {
    SCOPED_TRACE(static_cast<int>(wire[0]));
    for (std::size_t len = 0; len <= wire.size(); ++len) {
      // A prefix of the intact wire: the bytes past the cut are still the
      // packet's, so a missing length check would decode them.
      check_decode(BytesView(wire).first(len));
      // The same prefix alone in a heap buffer of exactly its length, so a
      // read past the cut trips AddressSanitizer.
      check_decode(Bytes(wire.begin(), wire.begin() + len));
    }
    // Each change in a fresh heap buffer of the packet's length.
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (int mask = 1; mask < 256; ++mask) {
        Bytes mutated = wire;
        mutated[i] ^= static_cast<std::uint8_t>(mask);
        check_decode(mutated);
      }
    }
  }
}

// Property check: arbitrary payload bytes survive a round trip unchanged.
class PackedStructPayloadSweep : public ::testing::TestWithParam<int> {};

TEST_P(PackedStructPayloadSweep, RandomPayloadRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::size_t size = static_cast<std::size_t>(rng.uniform_int(0, 4096));
  Bytes payload(size);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  OmniAddress src{static_cast<std::uint64_t>(rng.uniform_int(1, INT64_MAX))};
  PackedStruct p = (GetParam() % 2 == 0)
                       ? PackedStruct::context(src, payload)
                       : PackedStruct::data(src, payload);
  Bytes wire = p.encode();
  auto decoded = PackedStruct::decode(wire);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(own(decoded.value()), p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedStructPayloadSweep,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace omni
