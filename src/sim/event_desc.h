// Typed, serializable event descriptors.
//
// The event queue's native payload is an opaque `std::function` closure —
// perfect for the long tail of one-off callbacks, but opaque to snapshots,
// and captures beyond the small-buffer limit heap-allocate on every
// schedule. An EventDesc is the alternative for the hot recurring event
// classes (beacon/advert timers, SimQueue drains, BLE sweep batches,
// discovery ticks, mobility hops, maintenance/expiry, scenario timers): a
// tagged POD of kind + owner + at most 32 payload bytes, stored inline in the
// event slab (sim/event_queue.h) and dispatched through a kind→handler
// registry on the Simulator (sim/simulator.h). Because a descriptor is pure
// data, a pending descriptor is recorded in `.osnap` snapshots
// (docs/FORMATS.md) by what it will do, where a closure is recorded only by
// when it fires.
//
// Kinds are part of the snapshot format: renumbering an existing kind is a
// breaking format change (bump the snapshot version), appending is not.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>

#include "common/codec.h"

namespace omni::sim {

/// Descriptor kind tag. Kind 0 is reserved for "this event is a closure";
/// real descriptors use 1..kEventKindCount-1.
using EventKind = std::uint16_t;

inline constexpr EventKind kEventClosure = 0;        ///< opaque EventFn, not a descriptor
inline constexpr EventKind kEventQueueDrain = 1;     ///< {u32 slot} SimQueue deferred wake
inline constexpr EventKind kEventBleAdvertFire = 2;  ///< {u32 node, u32 uid, u32 adv}
inline constexpr EventKind kEventBleSweep = 3;       ///< {u64 packed batch key}
inline constexpr EventKind kEventBleScanApply = 4;   ///< {u32 node, u32 uid}
inline constexpr EventKind kEventMgrMaintenance = 5; ///< {u32 slot} engagement maintenance tick
inline constexpr EventKind kEventMgrPeerSweep = 6;   ///< {u32 slot} peer-expiry sweep
inline constexpr EventKind kEventMobilityHop = 7;    ///< {u32 slot} mobility model tick/leg
inline constexpr EventKind kEventScenarioTimer = 8;  ///< {u32 slot} scenario DSL instruction
inline constexpr EventKind kEventDiscoveryTick = 9;  ///< {u32 slot} disengaged-tech probe
inline constexpr EventKind kEventEngageSync = 10;    ///< {u32 slot} engagement flag sync
inline constexpr EventKind kEventTestA = 14;         ///< reserved for tests
inline constexpr EventKind kEventTestB = 15;         ///< reserved for tests
inline constexpr EventKind kEventKindCount = 16;

/// Maximum inline payload. Matches the closure small-buffer budget in the
/// event slab so descriptors never grow the slot.
inline constexpr std::size_t kEventPayloadMax = 32;

/// A schedulable event as pure data: what to do (kind + payload) and whose
/// context to do it in (owner). `owner` mirrors OwnerId (event_queue.h).
struct EventDesc {
  EventKind kind = kEventClosure;
  std::uint8_t psize = 0;
  std::uint32_t owner = 0xffffffffu;  // kGlobalOwner
  unsigned char payload[kEventPayloadMax] = {};

  std::uint32_t payload_u32(std::size_t offset) const {
    std::uint32_t v = 0;
    std::memcpy(&v, payload + offset, sizeof v);
    return v;
  }
  std::uint64_t payload_u64(std::size_t offset) const {
    std::uint64_t v = 0;
    std::memcpy(&v, payload + offset, sizeof v);
    return v;
  }
};

/// Human name for a kind; tolerates unknown values (diagnostics, bench rows).
const char* event_kind_name(EventKind kind);

// --- Payload builders --------------------------------------------------------
// Fixed-width little-endian fields packed in declaration order; layouts are
// documented per kind above and normatively in docs/FORMATS.md.

inline std::uint8_t pack_u32s(unsigned char* payload,
                              std::initializer_list<std::uint32_t> vals) {
  std::uint8_t off = 0;
  for (std::uint32_t v : vals) {
    std::memcpy(payload + off, &v, sizeof v);
    off += sizeof v;
  }
  return off;
}

inline std::uint8_t pack_u64(unsigned char* payload, std::uint64_t v) {
  std::memcpy(payload, &v, sizeof v);
  return sizeof v;
}

// --- Wire encoding -----------------------------------------------------------
// var(kind) var(psize) payload[psize]. Used by the `.osnap` pending-descriptor
// section (docs/FORMATS.md).

inline void encode_event_desc(codec::ByteWriter& w, EventKind kind,
                              std::uint8_t psize,
                              const unsigned char* payload) {
  w.var(kind);
  w.var(psize);
  for (std::uint8_t i = 0; i < psize; ++i) w.u8(payload[i]);
}

/// Strict decode into `out` (owner is not encoded — it travels in the
/// enclosing record). Returns false on overrun, kind 0 / out-of-range kind,
/// or psize > kEventPayloadMax; the reader's fail flag is also set so an
/// enclosing section decode fails closed.
bool decode_event_desc(codec::ByteReader& r, EventDesc& out);

}  // namespace omni::sim
