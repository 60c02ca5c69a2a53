#include <gtest/gtest.h>

#include "net/link_frame.h"

namespace omni {
namespace {

Bytes copy_of(BytesView view) { return Bytes(view.begin(), view.end()); }

TEST(LinkFrameTest, BroadcastRoundTripBle) {
  Bytes packed{1, 2, 3};
  Bytes frame = frame_broadcast(packed);
  EXPECT_EQ(frame.size(), packed.size() + 1);
  auto out = unframe_ble_view(frame, BleAddress::from_node(1));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(copy_of(*out), packed);
  EXPECT_EQ(out->data(), frame.data() + kBleBroadcastFrameOverhead);
}

TEST(LinkFrameTest, UnicastBleOnlyReachesAddressee) {
  BleAddress me = BleAddress::from_node(1);
  BleAddress other = BleAddress::from_node(2);
  Bytes frame = frame_unicast_ble(me, Bytes{7});
  EXPECT_TRUE(unframe_ble_view(frame, me).has_value());
  EXPECT_FALSE(unframe_ble_view(frame, other).has_value());
  EXPECT_EQ(copy_of(*unframe_ble_view(frame, me)), (Bytes{7}));
}

TEST(LinkFrameTest, UnicastMeshOnlyReachesAddressee) {
  MeshAddress me = MeshAddress::from_node(1);
  MeshAddress other = MeshAddress::from_node(2);
  Bytes frame = frame_unicast_mesh(me, Bytes{7, 8});
  EXPECT_TRUE(unframe_mesh_view(frame, me).has_value());
  EXPECT_FALSE(unframe_mesh_view(frame, other).has_value());
  EXPECT_EQ(copy_of(*unframe_mesh_view(frame, me)), (Bytes{7, 8}));
}

TEST(LinkFrameTest, BroadcastDataFramePassesUnframing) {
  Bytes frame = frame_broadcast_data(Bytes{4, 5});
  EXPECT_EQ(frame[0], kFrameBroadcastData);
  auto out = unframe_mesh_view(frame, MeshAddress::from_node(1));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(copy_of(*out), (Bytes{4, 5}));
}

TEST(LinkFrameTest, MalformedFramesRejected) {
  EXPECT_FALSE(
      unframe_ble_view(Bytes{}, BleAddress::from_node(1)).has_value());
  EXPECT_FALSE(
      unframe_mesh_view(Bytes{}, MeshAddress::from_node(1)).has_value());
  // Unicast frame too short to carry the address.
  EXPECT_FALSE(
      unframe_ble_view(Bytes{kFrameUnicast, 1, 2}, BleAddress::from_node(1))
          .has_value());
  EXPECT_FALSE(unframe_mesh_view(Bytes{kFrameUnicast, 1, 2, 3},
                                 MeshAddress::from_node(1))
                   .has_value());
  // Unknown frame type.
  EXPECT_FALSE(unframe_ble_view(Bytes{0x7F, 1, 2}, BleAddress::from_node(1))
                   .has_value());
}

TEST(LinkFrameTest, AggregateRoundTrip) {
  std::vector<Bytes> inner{{1, 2}, {}, {3, 4, 5}};
  Bytes frame = frame_aggregate(inner);
  EXPECT_EQ(frame[0], kFrameAggregate);
  auto out = unframe_aggregate(frame);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(copy_of(out[0]), (Bytes{1, 2}));
  EXPECT_TRUE(out[1].empty());
  EXPECT_EQ(copy_of(out[2]), (Bytes{3, 4, 5}));
  // Every inner payload is a view into the one frame: 1 type byte, then a
  // 4-byte length before each payload.
  EXPECT_EQ(out[0].data(), frame.data() + 1 + 4);
  EXPECT_EQ(out[2].data(), frame.data() + 1 + 4 + 2 + 4 + 0 + 4);
}

TEST(LinkFrameTest, AggregateOfNothing) {
  Bytes frame = frame_aggregate({});
  EXPECT_TRUE(unframe_aggregate(frame).empty());
}

TEST(LinkFrameTest, TruncatedAggregateRejectedWholesale) {
  Bytes frame = frame_aggregate({{1, 2, 3}});
  frame.pop_back();
  EXPECT_TRUE(unframe_aggregate(frame).empty());
}

TEST(LinkFrameTest, NonAggregateRejectedByAggregateParser) {
  EXPECT_TRUE(unframe_aggregate(frame_broadcast(Bytes{1})).empty());
  EXPECT_TRUE(unframe_aggregate(Bytes{}).empty());
}

// --- Hardening: frames from the air are untrusted -----------------------------
//
// Unframing hands out views, so its bounds checks are all that stands between
// a damaged frame and an out-of-bounds read. Every truncation and every
// single-byte change of each frame kind must either unframe to views that lie
// inside the input or be rejected.

/// Compared as integers: a view whose size wrapped around would pass a
/// pointer comparison.
bool inside(BytesView view, BytesView input) {
  if (view.empty()) return true;
  const auto begin = reinterpret_cast<std::uintptr_t>(input.data());
  const auto at = reinterpret_cast<std::uintptr_t>(view.data());
  return at >= begin && view.size() <= input.size() &&
         at - begin <= input.size() - view.size();
}

/// Unframe `input` every way a receiver can and check every view.
void check_unframing(BytesView input) {
  const BleAddress ble = BleAddress::from_node(1);
  const MeshAddress mesh = MeshAddress::from_node(1);
  if (auto view = unframe_ble_view(input, ble)) {
    EXPECT_TRUE(inside(*view, input));
  }
  if (auto view = unframe_mesh_view(input, mesh)) {
    EXPECT_TRUE(inside(*view, input));
  }
  for (BytesView view : unframe_aggregate(input)) {
    EXPECT_TRUE(inside(view, input));
  }
}

void check_every_mutation(const Bytes& frame) {
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    // A prefix of the intact frame: the bytes past the cut are still the
    // frame's, so a missing length check would find the address there.
    check_unframing(BytesView(frame).first(len));
    // The same prefix alone in a heap buffer of exactly its length, so a
    // read past the cut trips AddressSanitizer.
    check_unframing(Bytes(frame.begin(), frame.begin() + len));
  }
  // Each change in a fresh heap buffer of the frame's length.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int mask = 1; mask < 256; ++mask) {
      Bytes mutated = frame;
      mutated[i] ^= static_cast<std::uint8_t>(mask);
      check_unframing(mutated);
    }
  }
}

TEST(LinkFrameTest, EveryTruncationAndByteFlipStaysInBounds) {
  const Bytes packed{0x02, 1, 2, 3, 4, 5, 6, 7, 8, 0xAA, 0xBB};
  const std::vector<Bytes> frames = {
      frame_broadcast(packed),
      frame_broadcast_data(packed),
      frame_unicast_ble(BleAddress::from_node(1), packed),
      frame_unicast_mesh(MeshAddress::from_node(1), packed),
      frame_aggregate({packed, {}, Bytes{9, 9, 9}}),
  };
  for (const Bytes& frame : frames) {
    SCOPED_TRACE(static_cast<int>(frame[0]));
    check_every_mutation(frame);
  }
}

}  // namespace
}  // namespace omni
