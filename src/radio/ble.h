// Bluetooth Low Energy model: connection-less advertising and scanning.
//
// Models what the paper's BlueZ-based prototype used: periodic advertisement
// broadcasts (the carrier for Omni context and address beacons) plus a
// fast-advertising path for pushing a small datagram to neighbors. Payload
// sizes honour the legacy 31-byte advertisement ceiling; the Bluetooth 5
// extended-advertising flag (the paper's future-work item) raises it.
//
// Energy: scanning is a level charge (scan duty * 7.0 mA); every advertising
// event charges 8.2 mA for the event duration — matching the paper's Table 3.
//
// Parallel engine: BLE is the sharded medium. A broadcast runs on the
// transmitting node's shard; it resolves candidates against a barrier-
// maintained scan-state snapshot, draws capture trials from the sender's own
// RNG stream, and records one pending delivery per winning radio, due one
// advertising event (min_latency()) in the future — the strictly positive
// latency the simulator's conservative lookahead is derived from. At the
// window barrier the medium flushes the recorded winners into one sweep
// event per (delivery instant, receiving node), owned by the receiver, so a
// fire that reaches seven neighbors costs one batched event per neighbor
// instead of seven mailbox posts through the serial merge.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "common/types.h"
#include "radio/calibration.h"
#include "radio/energy_meter.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace omni::radio {

class BleMedium;

/// Identifier for an active periodic advertisement on one radio.
using AdvertisementId = std::uint32_t;

class BleRadio {
 public:
  /// Receives the transmitter's frame itself, shared by every receiver of
  /// the transmission; a handler that keeps a reference keeps the frame.
  using ReceiveFn =
      std::function<void(const BleAddress& from, const SharedBytes& frame)>;
  using SendDoneFn = std::function<void(Status)>;

  BleRadio(BleMedium& medium, sim::Simulator& sim, EnergyMeter& meter,
           NodeId node, const Calibration& cal);
  ~BleRadio();
  BleRadio(const BleRadio&) = delete;
  BleRadio& operator=(const BleRadio&) = delete;

  const BleAddress& address() const { return address_; }
  NodeId node() const { return node_; }
  bool powered() const { return powered_; }
  const Calibration& calibration() const { return cal_; }
  sim::Simulator& simulator() { return sim_; }

  /// Power the controller on/off. Off cancels advertisements and scanning.
  void set_powered(bool on);

  /// Notified after every power-state change (protocol layers use this to
  /// report technology status to the Omni Manager).
  using PowerFn = std::function<void(bool powered)>;
  void set_power_handler(PowerFn fn) { on_power_ = std::move(fn); }

  /// Rotate to a fresh (resolvable-private-style) address, as BLE privacy
  /// features periodically do. Running advertisements continue under the
  /// new address; the address-change handler fires so protocol layers can
  /// report it upward (paper §3.2: a response is generated "when ... the
  /// address changes").
  void rotate_address();
  using AddressFn = std::function<void(const BleAddress& fresh)>;
  void set_address_handler(AddressFn fn) { on_address_ = std::move(fn); }

  /// Enable the scanner at a duty cycle in (0, 1]. Received advertisements
  /// (from in-range advertisers, subject to capture probability * duty) are
  /// delivered to the receive handler. With `slotted` set the duty is
  /// realized as a deterministic open-slot schedule instead of an
  /// independent per-advertisement thinning trial: openness of each fixed
  /// 100 ms slot follows a receiver-keyed golden-ratio rotation, so a
  /// periodic advertiser on the beacon lattice is heard with bounded miss
  /// runs (at most O(1/duty) consecutive losses) rather than geometric
  /// tails. The adaptive discovery scheduler uses slotted scanning so its
  /// hint-scaled peer-expiry horizon is never outrun by an unlucky streak;
  /// plain duty keeps the historical Bernoulli semantics byte-for-byte.
  void set_scanning(bool enabled, double duty = 1.0, bool slotted = false);
  bool scanning() const { return scanning_; }
  double scan_duty() const { return scan_duty_; }
  bool scan_slotted() const { return scan_slotted_; }

  void set_receive_handler(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// Maximum advertisement payload under the current calibration.
  std::size_t max_payload() const;

  /// Begin a periodic advertisement. Fails if the payload exceeds
  /// max_payload() or the radio is off.
  Result<AdvertisementId> start_advertising(Bytes payload, Duration interval);

  /// Replace payload and/or interval of an existing advertisement.
  Status update_advertising(AdvertisementId id, Bytes payload,
                            Duration interval);

  Status stop_advertising(AdvertisementId id);
  std::size_t active_advertisements() const { return advertisements_.size(); }

  /// Push one datagram via fast advertising: broadcast to in-range scanners
  /// after the fast-advertising latency, the analytic mean (interval/2 +
  /// event), then report completion.
  Status send_datagram(Bytes payload, SendDoneFn done);

  /// Called by the medium when an in-range advertisement arrives.
  void deliver(const BleAddress& from, const SharedBytes& payload);

 private:
  struct Advertisement {
    // Immutable once set (replaced wholesale on update): in-flight delivery
    // events share it, and every fire broadcasts it without copying.
    SharedBytes payload;
    Duration interval;
    sim::EventHandle next_event;
  };

  void schedule_adv(AdvertisementId id, Duration delay);
  void fire_adv(AdvertisementId id);
  void apply_scan_level();
  Advertisement* find_adv(AdvertisementId id);

  /// The medium assigns uid_ at attach and fires advertisements by
  /// descriptor ({node, uid, adv} — see kEventBleAdvertFire), resolving the
  /// uid back to this radio through its snapshot table.
  friend class BleMedium;

  BleMedium& medium_;
  sim::Simulator& sim_;
  EnergyMeter& meter_;
  NodeId node_;
  const Calibration& cal_;
  BleAddress address_;

  bool powered_ = true;
  bool scanning_ = false;
  double scan_duty_ = 1.0;
  bool scan_slotted_ = false;
  ReceiveFn on_receive_;
  PowerFn on_power_;
  AddressFn on_address_;
  std::uint32_t rotation_count_ = 0;
  std::uint32_t uid_ = 0;  ///< medium-stable id, set by BleMedium::attach
  AdvertisementId next_adv_id_ = 1;
  // A device runs a handful of advertisements (address beacon + a few
  // contexts): a flat vector with linear lookup beats hashing on the
  // per-fire hot path.
  std::vector<std::pair<AdvertisementId, Advertisement>> advertisements_;
};

/// The shared BLE broadcast medium: tracks radios, resolves range via the
/// world, and applies the scan-capture model.
class BleMedium {
 public:
  BleMedium(sim::World& world, const Calibration& cal);
  BleMedium(const BleMedium&) = delete;
  BleMedium& operator=(const BleMedium&) = delete;

  void attach(BleRadio* radio);
  void detach(BleRadio* radio);

  /// Deliver `payload` from `from` to every powered, scanning radio in range
  /// that wins its capture trial, one advertising event from now. A
  /// `reliable_burst` (fast-advertising repetition, used for datagrams)
  /// bypasses the capture trial: repeating the event across the window makes
  /// capture all but certain. Runs in the sender's execution context; trials
  /// draw from the sender's RNG stream against the scan-state snapshot.
  void broadcast(const BleRadio& from, const SharedBytes& payload,
                 bool reliable_burst = false);

  /// Smallest cross-node latency this medium can produce: one advertising
  /// event (the 3-channel sweep airtime) separates every transmission from
  /// its reception. The simulator's conservative lookahead derives from
  /// this (Testbed calls set_lookahead(min_latency())).
  Duration min_latency() const { return cal_.ble_adv_event; }

  /// Called by radios whenever power/scanning/duty changes. Snapshot updates
  /// apply immediately from barrier-serialized contexts and are deferred to
  /// the next window barrier from node-owned events, so concurrent senders
  /// always read a stable snapshot.
  void update_scan_state(BleRadio* radio);

  sim::World& world() { return world_; }
  const Calibration& calibration() const { return cal_; }

  /// Total advertisements delivered (for tests/telemetry). Sums per-shard
  /// counters; call it from barrier-serialized contexts (tests, reports).
  std::uint64_t delivered_count() const;

 private:
  /// Per-radio snapshot entry, mutated only at epoch barriers (attach,
  /// detach, scan-state applies) and read concurrently by senders.
  struct RadioState {
    BleRadio* radio;
    std::uint32_t uid;  ///< stable id; delivery events revalidate against it
    bool scanning;      ///< powered && scanner enabled, at last barrier
    double duty;
    bool slotted;  ///< duty realized as a deterministic slot schedule
  };

  /// One frame on the air during the current window: the fields every
  /// winner shares. Splitting these out keeps the per-winner record at 12
  /// bytes and takes one payload refcount per transmission instead of one
  /// per receiver.
  struct PendingTx {
    TimePoint at;  ///< delivery instant (transmission + min_latency)
    NodeId src;    ///< transmitting node (canonical-order key)
    BleAddress from;
    SharedBytes payload;
  };
  /// A capture-trial winner awaiting delivery. Produced on the sender's
  /// shard during a window (one lane per shard, so recording is contention-
  /// free), flushed at the barrier by flush_pending().
  struct PendingWinner {
    NodeId dst;  ///< receiving node (sweep events group on this)
    std::uint32_t rx_uid;
    std::uint32_t tx;  ///< PendingTx index: lane-local until the flush
                       ///< concatenation rebases it
  };

  /// One flushed window's delivery working set (the concatenated
  /// transmissions and the canonically sorted winners), recycled across
  /// windows. Sweep events reference their batch by pool slot packed with
  /// the winner range into one u64, so the event closure is 16 bytes and
  /// stays in std::function's small-buffer storage — no allocation and no
  /// shared_ptr refcount traffic per sweep event. `remaining` counts the
  /// batch's unfinished sweep events (decremented on receiver shards, read
  /// at the flush barrier); a batch is reused once it reaches zero.
  struct SweepBatch {
    std::vector<PendingTx> txs;
    std::vector<PendingWinner> winners;
    std::atomic<std::uint32_t> remaining{0};
  };

  /// Flattened broadcast fan-out for one sender: every scanning radio in
  /// range minus the sender itself, in the exact order the uncached walk
  /// visits them (ascending node id, attach order within a node), so the
  /// capture-trial RNG draw sequence is identical either way. Rebuilt when
  /// the sender's neighborhood fingerprint (per-region epochs — churn in
  /// distant regions leaves it untouched), its home position, or the medium
  /// snapshot epoch move; only consulted while the world is static and no
  /// fault plan is armed (fault draws are per-node, which the flattened walk
  /// cannot reproduce).
  struct FanoutCandidate {
    BleRadio* radio;
    std::uint32_t uid;
    NodeId node;
    double duty;
    bool slotted;
  };
  struct FanoutCache {
    std::uint64_t nb_epoch = 0;  // 0 = never built
    std::uint64_t medium_epoch = 0;
    sim::Vec2 center;
    std::vector<FanoutCandidate> cands;
  };

  void apply_scan_state(BleRadio* radio);
  /// Resolve a (node, uid) descriptor reference back to a live radio;
  /// nullptr if it detached since the descriptor was scheduled.
  BleRadio* find_radio(NodeId node, std::uint32_t uid);
  /// Descriptor dispatch (registered in the constructor): advert fires,
  /// sweep batches, and deferred scan-state applies arrive as typed events
  /// instead of `this`-capturing closures.
  static void advert_fire_handler(void* ctx, sim::Simulator& sim,
                                  const sim::EventDesc& d);
  static void sweep_handler(void* ctx, sim::Simulator& sim,
                            const sim::EventDesc& d);
  static void scan_apply_handler(void* ctx, sim::Simulator& sim,
                                 const sim::EventDesc& d);
  void deliver(NodeId node, std::uint32_t rx_uid, const BleAddress& from,
               const SharedBytes& payload);
  /// Run one sweep event: slot(16) | begin(24) | end(24), see flush_pending.
  void run_sweep(std::uint64_t packed);
  /// deliver() minus the per-reception shard-lane counter bump; returns
  /// whether the radio was still attached. deliver_batch counts locally and
  /// settles its lane counter once per sweep event.
  bool deliver_uncounted(NodeId node, std::uint32_t rx_uid,
                         const BleAddress& from, const SharedBytes& payload);
  /// Barrier hook: sort this window's recorded winners into canonical
  /// (receiver, time, sender) order and schedule one sweep event per
  /// (delivery instant, receiver) run of the sorted batch.
  void flush_pending();
  void deliver_batch(const std::vector<PendingTx>& txs,
                     const std::vector<PendingWinner>& batch,
                     std::size_t begin, std::size_t end);

  /// Per-shard working set, padded to a cache line: the pending transmission
  /// and winner lanes written while broadcasting and the delivered counter
  /// bumped on every reception. Shards touch only their own Lane during
  /// windows — without the padding, adjacent vector headers and counters
  /// ping-pong a shared line across every core.
  struct alignas(64) Lane {
    std::vector<PendingTx> txs;
    std::vector<PendingWinner> winners;
    std::uint64_t delivered = 0;
  };

  sim::World& world_;
  const Calibration& cal_;
  /// Snapshot table indexed by NodeId (ids are dense); a node may host
  /// several radios (kept in attach order).
  std::vector<std::vector<RadioState>> radios_by_node_;
  std::uint32_t next_uid_ = 1;
  /// Index nshards_ is the barrier-serialized global lane.
  std::vector<Lane> lanes_;
  /// Recycled flush batches (see SweepBatch). Sweeps fire up to one
  /// lookahead after the barrier — past later flushes — so a slot is only
  /// reused once its `remaining` countdown hits zero. The pool stabilizes
  /// at the number of windows in flight (a few), all reclaimed at teardown
  /// via the owning unique_ptrs.
  std::vector<std::unique_ptr<SweepBatch>> sweep_batches_;
  /// Reused counting-scatter scratch (flush_pending): per-receiver bucket
  /// boundaries and the scatter cursor.
  std::vector<std::uint32_t> bucket_starts_;
  std::vector<std::uint32_t> bucket_fill_;
  /// Per-sender fault-draw salts (one frame counter per node). A node's
  /// broadcasts all run on its own shard, so each slot is single-writer and
  /// the sequence — and with it every fault draw — is thread-count
  /// independent. Sized in attach() (barrier-serialized).
  std::vector<std::uint64_t> fault_salts_;
  /// Fan-out caches indexed by sender radio uid (see FanoutCache), plus the
  /// medium's snapshot epoch, bumped whenever the RadioState table changes
  /// (attach/detach/apply_scan_state — all barrier-serialized). A sender's
  /// broadcasts all run on its own shard, so each cache slot stays
  /// single-writer during windows.
  std::vector<FanoutCache> fanout_by_uid_;
  std::uint64_t medium_epoch_ = 1;
};

}  // namespace omni::radio
