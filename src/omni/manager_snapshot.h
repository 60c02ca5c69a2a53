// Assembles the kSecManagers snapshot section from a set of OmniManagers.
//
// The sim layer owns the snapshot container and the engine-state sections
// (events, rng, world, faults); manager state lives up here because only the
// omni layer can see inside an OmniManager. The testbed bridges the two: it
// exposes add_snapshot_source(), and whoever owns the managers (OmniNode
// fleets, baselines, tests) registers capture_managers through it —
// add_manager_snapshot_source() does so for a plain OmniNode fleet.
//
// Encoding: var manager_count | u8 deep | per-manager records ascending by
// omni address (a canonical order — node construction order is already
// deterministic, but address order survives any future reshuffling of
// container types). Each record is length-prefixed so a diff can skip to the
// divergent manager. `deep` embeds full peer tables (small runs, rich
// omnisnap diffs); shallow collapses each table to a digest of the identical
// canonical bytes (city-scale size budget, same verification strength).
#pragma once

#include <memory>
#include <vector>

#include "sim/snapshot.h"

namespace omni {

namespace net {
class Testbed;
}
class OmniManager;
class OmniNode;

/// Fleets up to this many managers capture deep peer tables; larger ones
/// capture a digest of the same bytes.
inline constexpr std::size_t kDeepCaptureMaxManagers = 64;

/// Write the kSecManagers section. `managers` may be in any order and may
/// contain nulls (skipped); records are sorted by manager address.
void capture_managers(const std::vector<const OmniManager*>& managers,
                      bool deep, sim::Snapshot& snap);

/// Register capture_managers over `nodes` as a snapshot source of `bed`, so
/// every capture (checkpoints and crash dumps included) carries the
/// managers section. `nodes` is read at capture time.
void add_manager_snapshot_source(
    net::Testbed& bed, const std::vector<std::unique_ptr<OmniNode>>& nodes);

/// Decoded per-record view for tooling (omnisnap inspect). Returns one
/// (address, record_size) pair per manager, or empty on malformed input.
std::vector<std::pair<std::uint64_t, std::size_t>> list_manager_records(
    const sim::SnapshotSection& sec);

}  // namespace omni
