// Discovery scheduling policy (ROADMAP item 4, Karowski & Miller).
//
// The paper's baseline discovery loop beacons every 500 ms and listens with a
// fixed probe duty regardless of how crowded the neighborhood is. At city
// scale the dense tiles then spend most of their event budget rediscovering
// peers they already know. DiscoveryPolicy describes the alternative: a
// per-node density-aware controller that backs the beacon interval off
// between a floor (ManagerOptions::beacon_interval, the paper's 500 ms) and a
// ceiling when the neighborhood is saturated and stable, and shortens passive
// scan windows in the same regime (Karowski-Miller optimized passive
// listening: when N stable neighbors all beacon at you, a 1/N listen duty
// still hears the aggregate at the same expected rate).
//
// Determinism contract: every input to the controller is a deterministic
// local signal (PeerTable occupancy, new-peer inserts since the last
// maintenance tick, region occupancy via sim::World), and the only random
// element is owner-hashed counter-indexed jitter — so runs stay bit-identical
// at any --threads. `kFixed` must reproduce the pre-policy behavior exactly
// (no extra RNG draws, no extra events); everything adaptive is gated on
// `mode == kAdaptive`.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace omni {

/// Knobs for the per-node adaptive discovery scheduler (OmniManager's
/// beacon-interval controller plus the passive listen-duty controller).
struct DiscoveryPolicy {
  enum class Mode : std::uint8_t {
    kFixed = 0,     ///< paper-faithful fixed cadence (default; byte-identical
                    ///< to the pre-policy build)
    kAdaptive = 1,  ///< density-aware backoff + optimized listen schedule
  };

  Mode mode = Mode::kFixed;

  // The floor — the lower bound, and the interval a node snaps back to
  // whenever a previously-unknown peer appears — is
  // ManagerOptions::beacon_interval.

  /// Upper bound once the neighborhood is dense (>= dense_peers) and stable.
  Duration ceiling = Duration::seconds(8);

  /// Ceiling for the middle regime (>= sparse_peers but < dense_peers).
  Duration sparse_ceiling = Duration::seconds(2);

  /// Multiplier applied per quiet maintenance tick while ramping up.
  double ramp = 2.0;

  /// Neighborhood occupancy (live peers, or region residents when the World
  /// is wired) at which the full ceiling applies.
  std::size_t dense_peers = 8;

  /// Occupancy at which any backoff is allowed at all; below this the
  /// interval stays pinned to the floor.
  std::size_t sparse_peers = 2;

  /// Fractional deterministic jitter applied to the advertised interval
  /// (owner-hashed, counter-indexed), de-phasing co-located beaconers.
  /// Off by default: the simulated capture model has no collisions, so
  /// de-phasing buys nothing, while phase-locked lattice intervals let the
  /// BLE medium batch same-instant deliveries into one sweep per receiver
  /// (the dominant event-count saving at city scale). Turn it on to model
  /// real-world anti-collision spreading; results stay bit-identical at any
  /// --threads either way.
  double jitter = 0.0;

  /// Floor for the probe-scan duty when the listen controller shortens scan
  /// windows in a saturated, stable neighborhood.
  double min_scan_duty = 0.05;

  /// Radius used for the World region-occupancy signal (defaults to the BLE
  /// calibrated range).
  double density_range_m = 40.0;
};

}  // namespace omni
