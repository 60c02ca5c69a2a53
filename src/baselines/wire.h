// Application-level wire helpers shared by the SP and SA baselines: every
// advert/data payload is prefixed with the sender's 8-byte application id
// (the baselines have no omni_address; a real app would embed a user or
// install id the same way). Also the peer freshness horizon they share.
#pragma once

#include <optional>
#include <utility>

#include "common/byte_buffer.h"
#include "baselines/d2d_stack.h"

namespace omni::baselines {

/// How long an SP or SA baseline keeps listing a peer it has not heard from
/// (known_peers()).
inline constexpr Duration kBaselinePeerTtl = Duration::seconds(30);

inline Bytes with_id(D2dStack::PeerId id, const Bytes& payload) {
  ByteWriter w(payload.size() + 8);
  w.u64(id);
  w.raw(payload);
  return std::move(w).take();
}

/// The sender's id and a view of the payload after it, valid as long as
/// `wire`.
inline std::optional<std::pair<D2dStack::PeerId, BytesView>> split_id(
    BytesView wire) {
  ByteReader r(wire);
  auto id = r.u64();
  if (!id || id.value() == 0) return std::nullopt;
  return std::make_pair(id.value(), wire.subspan(8));
}

}  // namespace omni::baselines
