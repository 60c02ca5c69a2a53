// Versioned binary snapshots of a deterministic run (".osnap" files).
//
// A snapshot freezes the complete *logical* state of a simulation at one
// global-quiescent instant T: the pending-event set of every owner, per-owner
// RNG stream digests and mailbox sequence counters, the world's motion rows,
// the fault plan and its injection counters, plus sections contributed by
// upper layers (OmniManager state, metrics) through the testbed. Together
// with the manifest (seed, capture time, executed events, scenario
// fingerprint) that state identifies the run bit-for-bit.
//
// What is serialized vs rebuilt: events hold opaque std::function closures,
// so a snapshot records *when* each pending event fires (and the body of
// typed ones), not what a closure captured; a snapshot is an oracle to
// compare runs against, not a run to load. Anything derivable by
// construction — radio-medium fan-out caches, nodes_near caches, beacon
// frame caches, observability rings — is deliberately *not* serialized.
//
// Canonical encoding: every section is byte-identical regardless of the
// capturing run's --threads value. Pending events are grouped per owner and
// ordered by (time, fire order) — never by engine-internal generation
// values, which are per-queue and thread-count-dependent. Only the
// manifest's `threads` field records the capturing thread count, so
// diff_snapshots(a, b, /*ignore_threads=*/true) is the repository's one
// cross-thread determinism check: capture the same run at two thread counts
// (at the end, or at every checkpoint of the same cadence) and compare.
//
// File layout: the shared sectioned container of common/codec.h with magic
// "OSNP" (docs/FORMATS.md is the normative byte-level spec). Loading is
// hardened: truncation, bad magic, unknown versions, and bit-flips anywhere
// (table or payload) fail with a diagnostic naming the damaged section —
// never UB. Versioning policy: the version bumps on any incompatible layout
// change; readers reject versions they don't know (sections are
// self-contained, so additive sections need no bump).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/result.h"
#include "common/time.h"
#include "sim/event_queue.h"

namespace omni::sim {

class Simulator;
class World;
class FaultPlan;

inline constexpr char kSnapshotMagic[4] = {'O', 'S', 'N', 'P'};
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Well-known section ids. Ids are stable across versions; unknown ids are
/// preserved by parse/serialize round trips (forward compatibility for
/// additive sections).
enum SectionId : std::uint32_t {
  kSecManifest = 1,  ///< seed, capture time, scenario fingerprint
  kSecEvents = 2,    ///< canonical per-owner pending-event lists
  kSecRng = 3,       ///< per-owner RNG digests + mailbox seq counters
  kSecWorld = 4,     ///< motion rows (full-stack + crowd)
  kSecFaults = 5,    ///< fault plan config + injection counters
  kSecManagers = 6,   ///< OmniManager state (written by the omni layer)
  kSecMetrics = 7,    ///< canonical metrics-registry dump
  kSecEventDescs = 8, ///< descriptor bodies of pending events (kind+payload)
};

/// Human name for a section id ("events", "world", ...; "sec<id>" for
/// unknown ids — the returned pointer for those is a static scratch).
const char* section_name(std::uint32_t id);

// The codec and container machinery live in common/codec.h; these aliases
// give them their sim-layer spellings.
using ::omni::codec::ByteReader;
using ::omni::codec::ByteWriter;
using SnapshotSection = ::omni::codec::Section;
using Snapshot = ::omni::codec::SectionContainer;

/// The ContainerSpec instance describing `.osnap` files (magic, version,
/// section names); parse/serialize_snapshot wrap the generic container
/// functions with it.
const ::omni::codec::ContainerSpec& snapshot_spec();

// SectionContainer's default version must stay in lockstep with the
// snapshot version, because capture paths rely on `Snapshot{}` already
// carrying the version they serialize under.
static_assert(kSnapshotVersion == 2,
              "bump SectionContainer's default version alongside this");

// --- Manifest ----------------------------------------------------------------

struct SnapshotManifest {
  std::uint64_t seed = 0;
  TimePoint at;                    ///< capture instant
  std::uint32_t threads = 0;       ///< capturing run's thread count (the
                                   ///< one field a state comparison ignores)
  std::uint64_t executed_events = 0;
  std::uint64_t node_count = 0;
  std::uint64_t device_count = 0;
  std::string label;
  /// fnv1a64 of the driving scenario source, 0 when not scenario-driven.
  std::uint64_t scenario_hash = 0;
  /// Optionally embedded scenario source (small runs), so a snapshot alone
  /// names the script that produced it.
  std::string scenario_text;
};

void write_manifest(const SnapshotManifest& m, Snapshot& snap);
Result<SnapshotManifest> read_manifest(const Snapshot& snap);

// --- State capture (sim layer; quiescent/global contexts only) ---------------

/// Pending events of every owner, canonically ordered. `at` is the capture
/// instant (all pending events fire at or after it).
void capture_events(const Simulator& sim, TimePoint at, Snapshot& snap);

/// Per-owner RNG stream digests + mailbox sequence counters, plus the
/// global stream (reported as kGlobalOwner).
void capture_rng(const Simulator& sim, Snapshot& snap);

/// Motion rows for every node, ascending by id, static rows compressed.
void capture_world(const World& world, Snapshot& snap);

/// Fault plan declarations + injection counters.
void capture_faults(const FaultPlan& plan, Snapshot& snap);

// --- Serialization / file I/O ------------------------------------------------

std::vector<std::uint8_t> serialize_snapshot(const Snapshot& snap);
/// Full hardening: magic, version, table bounds, per-section and trailer
/// checksums. Error messages name the damaged piece.
Result<Snapshot> parse_snapshot(std::span<const std::uint8_t> data);

Status write_snapshot_file(const std::string& path, const Snapshot& snap);
Result<Snapshot> read_snapshot_file(const std::string& path);

// --- Verify / diff -----------------------------------------------------------

/// fnv1a64 over the canonical serialization — one number identifying the
/// whole state.
std::uint64_t snapshot_digest(const Snapshot& snap);

/// "" when the snapshots carry byte-identical sections; otherwise a
/// diagnostic naming every divergent/missing section and the first
/// differing byte offset. `ignore_threads` compares the manifest with its
/// capturing `threads` field ignored — the state comparison that checks two
/// runs of one seed at different thread counts.
std::string diff_snapshots(const Snapshot& a, const Snapshot& b,
                           bool ignore_threads = false);

/// One-line-per-section human summary (omnisnap inspect): decodes the
/// manifest and per-section entry counts where the layout is known.
std::string describe_snapshot(const Snapshot& snap);

}  // namespace omni::sim
