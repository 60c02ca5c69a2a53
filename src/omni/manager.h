// The Omni Manager (paper §3.3) and the Developer API (paper §3.1, Table 1).
//
// One instance runs per device (the paper's intended OS-service design).
// Responsibilities:
//
//   * expose add/update/remove_context, send_data, request_context and
//     request_data to applications;
//   * emit the address_beacon every beacon_interval on the engaged context
//     technologies, carrying this device's low-level addresses;
//   * run the multi-technology engagement algorithm: beacon on the
//     lowest-energy context technology; probe the others every
//     probe_interval; engage a technology when an unknown peer appears
//     there; disengage it once every peer heard there is also reachable on
//     a lower-energy technology;
//   * maintain the peer mapping (omni_address -> technology -> low-level
//     address, with freshness/provenance) and the context mapping
//     (context id -> carrying technology);
//   * select the data technology that minimizes expected delivery time
//     (connection setup + size/throughput), and fail over across
//     technologies until all applicable ones are exhausted before invoking
//     the application's status callback with a failure.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "common/time.h"
#include "common/types.h"
#include "omni/comm_tech.h"
#include "omni/context_registry.h"
#include "omni/discovery_policy.h"
#include "omni/packed_struct.h"
#include "omni/peer_table.h"
#include "omni/queues.h"
#include "omni/security.h"
#include "omni/status.h"
#include "sim/simulator.h"

namespace omni {

namespace codec {
class ByteWriter;
}
namespace sim {
class World;
using ::omni::codec::ByteWriter;
}

struct ManagerOptions {
  /// Address beacon interval; the paper fixes it at 500 ms. Under
  /// DiscoveryPolicy::kAdaptive it is the floor: the interval a node starts
  /// at and snaps back to when a new peer appears, and the lattice its
  /// backed-off interval is quantized to. Must stay >= the engine's
  /// conservative lookahead (BleMedium::min_latency(), 10 ms).
  Duration beacon_interval = Duration::millis(500);
  /// Engagement maintenance / probe cadence (paper: "e.g., every five
  /// seconds").
  Duration probe_interval = Duration::seconds(5);
  /// How long a peer mapping stays usable without being re-heard. Expiry
  /// runs in an owner-local sweep at the probe_interval cadence, just
  /// before each maintenance tick.
  Duration peer_ttl = Duration::seconds(10);
  /// Ablation switch: disable the multi-technology engagement algorithm
  /// (beacons then go to every context technology, ubiSOAP-style).
  bool enable_engagement = true;

  enum class DataPolicy {
    kExpectedTime,      ///< paper's policy: minimize expected delivery time
    kPreferLowEnergy,   ///< ablation: always pick the lowest-energy tech
    kPreferThroughput,  ///< ablation: always pick the highest-throughput tech
  };
  DataPolicy data_policy = DataPolicy::kExpectedTime;

  /// Symmetric key for context/beacon encryption (paper §3.4); provisioned
  /// out of band. Empty = plaintext beacons. Devices without the key cannot
  /// parse — or even recognise — this device's beacons.
  Bytes context_key;

  /// Multi-hop context sharing (paper §5 future work, "BLE Mesh offers a
  /// promising solution"): re-broadcast received context packs and address
  /// beacons with this many further hops. 0 disables relaying. Relayed
  /// packets exceed legacy BLE advertisements for most payloads, so this
  /// pairs naturally with Bluetooth 5 extended advertising.
  int context_relay_hops = 0;
  /// How long one relayed packet keeps being re-broadcast.
  Duration relay_lifetime = Duration::millis(1500);

  /// Density-aware discovery scheduling (paper §5 adaptive intervals).
  /// kFixed — the default — beacons at the fixed beacon_interval; kAdaptive
  /// arms the beacon-interval controller and the Karowski-Miller listen-duty
  /// controller in maintenance_tick().
  DiscoveryPolicy discovery;

  /// Optional world handle for the discovery controller's region-occupancy
  /// signal (OmniNode wires the hosting device's world). Null = fall back to
  /// live PeerTable occupancy only.
  const sim::World* world = nullptr;

  /// Execution owner of this manager under the parallel engine: the hosting
  /// device's node id pins the manager's queues and timers to that node's
  /// shard (OmniNode sets this). The default keeps everything on the
  /// barrier-serialized global owner — correct for standalone managers
  /// driven directly by tests.
  sim::OwnerId owner = sim::kGlobalOwner;

  /// Self-healing knobs (paper §3.3 "Handling Failures", hardened for the
  /// wild). Defaults are chosen so fault-free behavior is unchanged: op
  /// deadlines only fire when a technology never responds (healthy paths
  /// cancel them first), and backoff/quarantine only engage after failures.
  struct SelfHealing {
    /// Floor for the per-attempt response deadline.
    Duration min_op_deadline = Duration::seconds(2);
    /// Data-op deadline = max(min_op_deadline,
    ///                        estimate_data_time * deadline_factor + slack).
    double deadline_factor = 4.0;
    Duration deadline_slack = Duration::seconds(1);
    /// Exponential backoff (base * 2^(n-1), capped) for beacon re-arm and
    /// quarantine re-probe, with deterministic seeded jitter.
    Duration backoff_base = Duration::millis(500);
    Duration backoff_max = Duration::seconds(8);
    double backoff_jitter = 0.25;  ///< +/- fraction applied to each delay
    /// Circuit breaker: this many up/down transitions inside flap_window
    /// quarantines the technology (no beaconing, no new ops) for a
    /// backoff-scaled hold before a re-probe.
    int flap_threshold = 4;
    Duration flap_window = Duration::seconds(10);
    /// Hard cap on concurrently pending data ops (table leak bound); ops
    /// beyond it fail immediately with an overload status.
    std::size_t max_pending_ops = 1024;
  };
  SelfHealing self_healing;
};

struct ManagerStats {
  std::uint64_t packets_received = 0;
  /// Sealed packets dropped (no key, wrong key, or tampering).
  std::uint64_t sealed_drops = 0;
  std::uint64_t beacons_received = 0;
  std::uint64_t context_received = 0;
  std::uint64_t data_received = 0;
  std::uint64_t data_sends = 0;
  std::uint64_t data_failovers = 0;
  std::uint64_t context_failovers = 0;
  std::uint64_t engagements = 0;
  std::uint64_t disengagements = 0;
  // Beacon fast path (the Omniscope mirrors these as mgr.* counters; the
  // ManagerStats copies stay live with observability off, so benches can
  // read them without paying for a scope).
  std::uint64_t beacon_encodes = 0;        ///< beacon wire-frame (re)encodes
  std::uint64_t beacon_frames_cached = 0;  ///< beacon ops served from cache
  /// Always 0: the receiver-side beacon memo it counted is gone. Kept
  /// because benchmark/omni_bench.cpp still reads it (omni.memo_hit_ratio);
  /// the .osnap managers record no longer writes it.
  std::uint64_t beacon_decode_skips = 0;
  std::uint64_t peer_expire_sweeps = 0;    ///< periodic expiry sweeps run
  std::uint64_t relayed_out = 0;  ///< packets this device re-broadcast
  std::uint64_t relayed_in = 0;   ///< relayed packets received
  // Self-healing counters.
  std::uint64_t deadline_failovers = 0;  ///< ops failed over by deadline
  std::uint64_t beacon_rearms = 0;       ///< beacon re-arm retries scheduled
  std::uint64_t quarantines = 0;         ///< flap circuit-breaker trips
  std::uint64_t overload_rejections = 0; ///< sends refused at max_pending_ops
  // Adaptive discovery scheduler.
  std::uint64_t beacons_suppressed = 0;    ///< beacons saved vs the floor rate
  std::uint64_t scan_windows_skipped = 0;  ///< ticks with probe duty lowered
};

class OmniManager {
 public:
  OmniManager(sim::Simulator& sim, OmniAddress self,
              ManagerOptions options = {});
  ~OmniManager();
  OmniManager(const OmniManager&) = delete;
  OmniManager& operator=(const OmniManager&) = delete;

  /// Register a technology plugin (before start()). The manager does not
  /// own the plugin; it must outlive the manager.
  void add_technology(CommTechnology& tech);

  /// Enable all technologies, begin address beaconing and engagement
  /// maintenance.
  void start();
  void stop();
  bool running() const { return running_; }

  // --- Developer API (paper Table 1) --------------------------------------
  void add_context(const ContextParams& params, Bytes context,
                   StatusCallback callback);
  void update_context(ContextId id, const ContextParams& params,
                      Bytes context, StatusCallback callback);
  void remove_context(ContextId id, StatusCallback callback);
  void send_data(const std::vector<OmniAddress>& destinations, Bytes data,
                 StatusCallback callback);
  /// Register a context receive callback. Multiple registrations are
  /// supported — the paper's intended OS-service deployment "invokes the
  /// receive callbacks provided by each application" (§3.4); every callback
  /// sees every context pack.
  void request_context(ReceiveContextCallback callback) {
    if (callback) on_context_.push_back(std::move(callback));
  }
  /// Register a data receive callback (same multi-registration semantics).
  void request_data(ReceiveDataCallback callback) {
    if (callback) on_data_.push_back(std::move(callback));
  }

  OmniAddress address() const { return self_; }

  // --- Introspection (tests / benches) -------------------------------------
  const PeerTable& peer_table() const { return peers_; }
  const ManagerStats& stats() const { return stats_; }
  bool technology_up(Technology tech) const;
  bool technology_engaged(Technology tech) const;
  /// The beacon info advertised by this device.
  const AddressBeaconInfo& beacon_info() const { return beacon_info_; }
  const ManagerOptions& options() const { return options_; }
  /// Current address-beacon interval (changes under
  /// DiscoveryPolicy::kAdaptive).
  Duration current_beacon_interval() const {
    return current_beacon_interval_;
  }
  /// Scan-duty cap pushed by the discovery scheduler (0 = no cap).
  double discovery_scan_duty() const { return discovery_scan_duty_; }
  /// Leak-invariant probes: every op table must drain to empty once every
  /// operation has completed or timed out (and always after stop()).
  std::size_t pending_data_count() const { return pending_data_.size(); }
  std::size_t data_attempt_count() const { return data_attempts_.size(); }
  std::size_t context_attempt_count() const {
    return context_attempts_.size();
  }
  bool technology_quarantined(Technology tech) const;
  bool technology_beaconing(Technology tech) const;

  /// Serialize this manager's canonical deterministic state (the per-manager
  /// record inside a snapshot's kSecManagers section — see
  /// omni/manager_snapshot.h). Counters, generations, self-healing and
  /// discovery-controller state, pending-op tables, and the peer table are
  /// written; the rebuilt beacon wire-frame cache is represented only by
  /// the generations that invalidate it. With `deep` the peer table is
  /// embedded entry by entry; without it the same canonical entry encoding
  /// is collapsed to a digest (city-scale size budget — verification
  /// strength is identical).
  void snapshot_state(sim::ByteWriter& w, bool deep) const;

 private:
  struct TechSlot {
    CommTechnology* tech = nullptr;
    // Immutable per-plugin facts, cached so the per-packet slot() scan and
    // engagement check avoid virtual dispatch.
    Technology type = Technology::kBle;
    bool supports_context = false;
    std::unique_ptr<SimQueue<SendRequest>> send_queue;
    LowLevelAddress address;
    bool up = false;
    bool beaconing = false;  ///< an address-beacon context is active here

    // Self-healing state.
    int beacon_failures = 0;        ///< consecutive beacon op failures
    sim::EventHandle beacon_rearm;  ///< pending backoff re-arm timer
    int flaps = 0;                  ///< status transitions inside the window
    TimePoint flap_window_start;
    int quarantine_count = 0;       ///< scales the quarantine hold (backoff)
    TimePoint quarantined_until;    ///< origin() = not quarantined
    sim::EventHandle quarantine_end;
  };

  // Internal context-id spaces: address beacons (one per technology) and
  // relayed packets.
  static constexpr ContextId kRelayContextBase = 0xE0000000;
  static constexpr ContextId kBeaconContextBase = 0xF0000000;
  ContextId beacon_context_id(Technology tech) const {
    return kBeaconContextBase + static_cast<ContextId>(tech);
  }
  bool is_beacon_context(ContextId id) const {
    return id >= kBeaconContextBase;
  }
  bool is_relay_context(ContextId id) const {
    return id >= kRelayContextBase && id < kBeaconContextBase;
  }
  bool is_internal_context(ContextId id) const {
    return id >= kRelayContextBase;
  }

  TechSlot* slot(Technology tech);
  const TechSlot* slot(Technology tech) const;

  std::uint64_t next_request_id() { return next_request_id_++; }

  // Queue consumers. Every received frame reaches handle_packet through
  // drain_packets, from one of the two receive queues.
  void drain_packets(SimQueue<ReceivedPacket>& queue,
                     std::vector<ReceivedPacket>& scratch);
  void drain_response_queue();
  /// The receive path proper: decode one drained packet in place and
  /// update the peer and context mappings (paper §3.3).
  void handle_packet(Technology tech, const LowLevelAddress& from,
                     BytesView packed);
  void handle_response(TechResponse response);
  void handle_data_response(const TechResponse& response);
  void handle_context_response(const TechResponse& response);

  // Beaconing & engagement.
  void start_beaconing_on(Technology tech);
  void stop_beaconing_on(Technology tech);
  void engage(Technology tech);
  void disengage(Technology tech);
  Technology primary_context_tech() const;
  void maintenance_tick();
  void schedule_maintenance();
  void schedule_peer_sweep();
  /// Periodic-tick bodies, invoked through the callback-slot directory: the
  /// maintenance and peer-sweep timers are {u32 slot} descriptors
  /// (kEventMgrMaintenance / kEventMgrPeerSweep), not `this` closures.
  void peer_sweep_fired();
  static void maintenance_thunk(void* ctx);
  static void peer_sweep_thunk(void* ctx);
  /// Re-advertise the address beacon at `interval` on every beaconing slot:
  /// one kUpdateContext request per slot, in slot order.
  void readvertise_beacon(Duration interval);

  // Adaptive discovery scheduler (options_.discovery, kAdaptive mode only;
  // see DESIGN.md "Adaptive discovery"). All methods are no-ops under kFixed.
  /// Per-maintenance-tick controller: ramps the beacon interval toward the
  /// density-tiered ceiling while the neighborhood is stable, and caps the
  /// passive scan duty once it is saturated.
  void discovery_tick();
  /// Event-driven reset: a previously-unknown peer was just inserted, so
  /// re-advertise at the floor immediately (entrant discovery latency stays
  /// bounded by the floor, not the backed-off interval).
  void discovery_snap_to_floor();
  /// Receive-path hook: snaps to the floor when the PeerTable insert counter
  /// moved since the last check (a genuinely new peer, not a refresh).
  void discovery_note_inserts();
  /// Push `interval` (owner-hash jittered, quantized to the beacon_interval
  /// lattice) to every beaconing slot.
  void push_beacon_interval(Duration interval);
  /// Neighborhood occupancy signal: region residents in radio range via the
  /// World when wired, else live PeerTable size.
  std::size_t discovery_occupancy();
  /// The application-chosen context advertisement interval, scaled by the
  /// adaptive backoff factor (current interval / floor) once the controller
  /// has backed off — re-broadcasting an unchanged context into a saturated
  /// stable neighborhood is the same redundant load as over-beaconing.
  /// Identity under kFixed and at the floor.
  Duration scaled_context_interval(Duration app_interval) const;

  /// The beacon wire frame, re-encoded (and re-sealed) only when stale: the
  /// cache keys on the beacon-info generation and the context-set
  /// generation, so address rotations and context changes invalidate it and
  /// every other caller shares the cached buffer.
  const SharedBytes& beacon_wire();

  // Multi-hop relay.
  void maybe_relay(OmniAddress source, std::uint8_t hops,
                   BytesView inner_encoded);
  void handle_relayed_packet(const PackedView& outer);
  /// Hand a received context (direct or relayed) to every context callback.
  void deliver_context(const PackedView& p);

  // Context handling.
  std::optional<Technology> pick_context_tech(
      std::size_t packed_size, const std::set<Technology>& exclude) const;
  void dispatch_context_add(ContextRecord& record);
  SharedBytes packed_context(const ContextRecord& record);

  /// Seal `packed` when a context key is provisioned (paper §3.4), as the
  /// shared buffer a request carries.
  SharedBytes maybe_seal(Bytes packed);

  // Self-healing.
  bool quarantined(const TechSlot& s) const {
    return s.quarantined_until > sim_.now();
  }
  /// Up and not benched by the flap circuit breaker.
  bool usable(const TechSlot& s) const { return s.up && !quarantined(s); }
  /// base * 2^(attempt-1) capped at backoff_max, with deterministic seeded
  /// jitter (stateless hash of the manager identity and a draw counter).
  Duration backoff_delay(int attempt);
  /// Schedule the no-response deadline for an attempt just pushed to `tech`.
  sim::EventHandle arm_deadline(std::uint64_t request_id, Duration budget);
  void on_attempt_deadline(std::uint64_t request_id);
  void note_status_flap(TechSlot& s);
  void schedule_beacon_rearm(TechSlot& s);

  // Data handling.
  struct PendingData {
    std::uint64_t op_id = 0;
    OmniAddress dest;
    SharedBytes packed;  ///< encoded data packet, shared with every attempt
    StatusCallback callback;
    std::set<Technology> tried;
    TimePoint started;  ///< enqueue instant (op-latency observability)
  };
  std::optional<Technology> pick_data_tech(const PendingData& op) const;
  void dispatch_data(std::uint64_t op_id);
  void fail_data(std::uint64_t op_id, const std::string& why);

  sim::Simulator& sim_;
  OmniAddress self_;
  ManagerOptions options_;

  std::vector<TechSlot> slots_;
  SimQueue<ReceivedPacket> receive_queue_;
  /// Receptions from shared-medium technologies (WiFi mesh). Those arrive
  /// from barrier-serialized global events, and any response they trigger
  /// goes back to a global-owned send queue — processing them in global
  /// context keeps the whole reception->response chain clamp-free under the
  /// parallel engine (a node-shard detour would quantize the response to the
  /// next epoch boundary, up to one lookahead of artificial latency on an
  /// intra-device software path).
  SimQueue<ReceivedPacket> shared_receive_queue_;
  SimQueue<TechResponse> response_queue_;
  // Reused drain buffers (see drain_packets).
  std::vector<ReceivedPacket> receive_scratch_;
  std::vector<ReceivedPacket> shared_receive_scratch_;
  std::vector<TechResponse> response_scratch_;
  // A sealed packet's plaintext (handle_packet): decoding views it, so it
  // must outlive the packet's handling. Bounded by the sealing technology's
  // frame size.
  Bytes unseal_scratch_;
  // The context a context callback receives (deliver_context): callbacks
  // take `const Bytes&`, and a context is bounded by the context
  // technology's frame size.
  Bytes context_scratch_;

  AddressBeaconInfo beacon_info_;
  SharedBytes beacon_packed_;
  /// Generation of beacon_info_: bumped on every mutation (start(), address
  /// rotation). beacon_wire() re-encodes when beacon_packed_ lags it or the
  /// context-set generation moved.
  std::uint64_t beacon_gen_ = 1;
  std::uint64_t beacon_wire_gen_ = 0;           ///< generation encoded
  std::uint64_t beacon_wire_ctx_gen_ = ~0ull;   ///< context gen encoded

  /// One in-flight request against one technology. The deadline fires when
  /// the technology never produces a TechResponse within the budget and
  /// fails the attempt over exactly as an explicit failure would; healthy
  /// responses cancel it first (O(log n), no event residue).
  struct DataAttempt {
    std::uint64_t op_id = 0;
    Technology tech = Technology::kBle;
    sim::EventHandle deadline;
  };
  struct ContextAttempt {
    ContextId id = kInvalidContext;
    Technology tech = Technology::kBle;
    SendOp op = SendOp::kAddContext;
    sim::EventHandle deadline;
  };

  PeerTable peers_;
  ContextRegistry contexts_;
  std::map<std::uint64_t, PendingData> pending_data_;
  /// request id -> data attempt (routing + deadline).
  std::map<std::uint64_t, DataAttempt> data_attempts_;
  /// request id -> context attempt (routing + deadline).
  std::map<std::uint64_t, ContextAttempt> context_attempts_;

  std::vector<ReceiveContextCallback> on_context_;
  std::vector<ReceiveDataCallback> on_data_;

  ManagerStats stats_;
  std::optional<BeaconCipher> cipher_;
  std::uint64_t next_nonce_ = 1;
  bool running_ = false;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t next_data_op_id_ = 1;
  sim::EventHandle maintenance_event_;
  /// Owner-local periodic peer-expiry sweep (scheduled before the
  /// maintenance tick at start(), so at shared instants expiry still runs
  /// first — exactly where it sat inside maintenance_tick before).
  sim::EventHandle peer_sweep_event_;
  /// Callback-slot ids naming this manager in maintenance / peer-sweep
  /// descriptors (registered for the manager's lifetime).
  std::uint32_t maintenance_slot_ = 0;
  std::uint32_t peer_sweep_slot_ = 0;
  /// Monotonic draw counter for backoff jitter (deterministic: all draws
  /// happen in this manager's owner context, in program order).
  std::uint64_t backoff_draws_ = 0;

  // Relay state: content-hash -> active relay context id (entries expire
  // after relay_lifetime).
  std::map<std::uint64_t, ContextId> active_relays_;
  ContextId next_relay_id_ = kRelayContextBase;

  // Discovery scheduler state (all inert under DiscoveryPolicy::kFixed).
  /// The unjittered beacon interval: beacon_interval, or the adaptive
  /// controller's current tier value.
  Duration current_beacon_interval_;
  /// Dedicated jitter draw counter — separate from backoff_draws_ so arming
  /// the policy never perturbs the self-healing jitter sequence.
  std::uint64_t discovery_draws_ = 0;
  /// PeerTable::inserts() at the last tick (new-peer rate signal).
  std::uint64_t discovery_last_inserts_ = 0;
  /// Scan-duty cap currently pushed to the plugins (0 = no cap).
  double discovery_scan_duty_ = 0.0;
  /// Scratch for World::nodes_near (no allocation in steady state).
  std::vector<NodeId> density_scratch_;
};

}  // namespace omni
