#include "radio/ble.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/hash.h"
#include "obs/omniscope.h"
#include "sim/fault_plan.h"

namespace omni::radio {

namespace {

/// Deterministic slotted listen schedule (set_scanning's `slotted` duty).
///
/// Openness of fixed 500 ms slots follows a golden-ratio rotation with a
/// receiver-keyed phase: slot s is open iff fract(s*phi + phase) < duty.
/// The slot width equals the beacon-interval floor, so a floor-rate
/// advertiser (every new arrival beacons at the floor) advances the
/// rotation by the full golden step per beacon and hits open slots with
/// frequency exactly `duty` and bounded miss runs (three-distance theorem)
/// — unlike an independent Bernoulli trial, whose geometric loss tails can
/// starve a peer's freshness long enough to outrun any finite expiry
/// horizon, and unlike a sub-floor slot width, whose per-beacon rotation
/// step fract(k*phi) can be near-resonant and bunch the misses. Pure
/// function of (receiver, arrival slot), so it is bit-identical at any
/// thread count and costs no RNG draw.
constexpr std::int64_t kListenSlotUs = 500'000;
constexpr double kGoldenFract = 0.6180339887498949;

bool listen_slot_open(NodeId node, TimePoint at, double duty) {
  const std::int64_t slot = at.as_micros() / kListenSlotUs;
  const double phase =
      static_cast<double>(splitmix64(static_cast<std::uint64_t>(node) + 1) >>
                          11) *
      0x1.0p-53;
  double x = static_cast<double>(slot) * kGoldenFract + phase;
  x -= std::floor(x);
  return x < duty;
}

}  // namespace

BleRadio::BleRadio(BleMedium& medium, sim::Simulator& sim, EnergyMeter& meter,
                   NodeId node, const Calibration& cal)
    : medium_(medium),
      sim_(sim),
      meter_(meter),
      node_(node),
      cal_(cal),
      address_(BleAddress::from_node(node)) {
  sim_.ensure_owner(node_);
  medium_.attach(this);
}

BleRadio::~BleRadio() {
  // Callbacks may point at protocol layers that are already gone.
  on_power_ = nullptr;
  on_receive_ = nullptr;
  on_address_ = nullptr;
  set_powered(false);
  medium_.detach(this);
}

void BleRadio::set_powered(bool on) {
  if (powered_ == on) return;
  powered_ = on;
  if (!on) {
    for (auto& [id, adv] : advertisements_) adv.next_event.cancel();
    advertisements_.clear();
    scanning_ = false;
  }
  apply_scan_level();
  medium_.update_scan_state(this);
  if (on_power_) on_power_(powered_);
}

void BleRadio::rotate_address() {
  ++rotation_count_;
  // Resolvable-private-style: derive a fresh address from the node id and
  // rotation counter (deterministic so tests can reproduce runs).
  address_ = BleAddress::from_node(node_);
  address_.octets[1] = static_cast<std::uint8_t>(0x40 | (rotation_count_ & 0x3f));
  address_.octets[2] = static_cast<std::uint8_t>(rotation_count_ >> 6);
  if (on_address_) on_address_(address_);
}

void BleRadio::apply_scan_level() {
  double ma = (powered_ && scanning_) ? cal_.ble_scan_ma * scan_duty_ : 0.0;
  // Passive listen cost rides its own ledger rail so discovery-policy scan
  // savings are separable from advertise/rx charges.
  meter_.set_level("ble.scan", ma, obs::EnergyRail::kBleScan);
}

void BleRadio::set_scanning(bool enabled, double duty, bool slotted) {
  OMNI_CHECK_MSG(duty > 0.0 && duty <= 1.0, "scan duty out of (0,1]");
  scanning_ = enabled && powered_;
  scan_duty_ = duty;
  scan_slotted_ = slotted;
  apply_scan_level();
  medium_.update_scan_state(this);
}

std::size_t BleRadio::max_payload() const {
  return cal_.ble_extended_advertising ? cal_.ble_extended_adv_payload
                                       : cal_.ble_legacy_adv_payload;
}

Result<AdvertisementId> BleRadio::start_advertising(Bytes payload,
                                                    Duration interval) {
  if (!powered_) return Result<AdvertisementId>::error("BLE radio is off");
  if (payload.size() > max_payload()) {
    return Result<AdvertisementId>::error("advertisement payload exceeds " +
                                          std::to_string(max_payload()) +
                                          " bytes");
  }
  if (interval <= Duration::zero()) {
    return Result<AdvertisementId>::error("advertisement interval must be >0");
  }
  AdvertisementId id = next_adv_id_++;
  advertisements_.emplace_back(
      id, Advertisement{std::make_shared<const Bytes>(std::move(payload)),
                        interval, sim::EventHandle{}});
  // First event after a full interval: a freshly added advertisement is not
  // instantly on the air.
  schedule_adv(id, interval);
  return id;
}

BleRadio::Advertisement* BleRadio::find_adv(AdvertisementId id) {
  for (auto& [adv_id, adv] : advertisements_) {
    if (adv_id == id) return &adv;
  }
  return nullptr;
}

Status BleRadio::update_advertising(AdvertisementId id, Bytes payload,
                                    Duration interval) {
  Advertisement* adv = find_adv(id);
  if (adv == nullptr) {
    return Status::error("unknown advertisement id");
  }
  if (payload.size() > max_payload()) {
    return Status::error("advertisement payload exceeds " +
                         std::to_string(max_payload()) + " bytes");
  }
  if (interval <= Duration::zero()) {
    return Status::error("advertisement interval must be >0");
  }
  bool reschedule = interval != adv->interval;
  adv->payload = std::make_shared<const Bytes>(std::move(payload));
  adv->interval = interval;
  if (reschedule) {
    adv->next_event.cancel();
    schedule_adv(id, interval);
  }
  return Status::ok();
}

Status BleRadio::stop_advertising(AdvertisementId id) {
  for (auto it = advertisements_.begin(); it != advertisements_.end(); ++it) {
    if (it->first == id) {
      it->second.next_event.cancel();
      advertisements_.erase(it);
      return Status::ok();
    }
  }
  return Status::error("unknown advertisement id");
}

void BleRadio::schedule_adv(AdvertisementId id, Duration delay) {
  Advertisement* adv = find_adv(id);
  if (adv == nullptr) return;
  // Pinned to this node's owner: advertising chains run on the node's shard
  // no matter which context (setup, queue drain) started them. The fire is a
  // {node, uid, adv} descriptor, not a closure: the medium resolves it back
  // to this radio (dropping it if we detached), and the slab stores 12
  // payload bytes instead of a captured `this`.
  unsigned char p[sim::kEventPayloadMax];
  std::uint8_t n = sim::pack_u32s(p, {node_, uid_, id});
  adv->next_event =
      sim_.schedule_desc_on(node_, delay, sim::kEventBleAdvertFire, p, n);
}

void BleRadio::fire_adv(AdvertisementId id) {
  Advertisement* adv = find_adv(id);
  if (adv == nullptr || !powered_) return;
  meter_.charge_for(cal_.ble_adv_event, cal_.ble_advertise_ma,
                    obs::EnergyRail::kBle);
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->mark_frame(sc->core().ble_adv, obs::Cat::kBleAdv);
  }
  // Reschedule before broadcasting, reusing this lookup. A receive handler
  // that stops or retunes this advertisement mid-broadcast cancels/replaces
  // the handle we just stored, so the outcome matches reschedule-after.
  unsigned char p[sim::kEventPayloadMax];
  std::uint8_t n = sim::pack_u32s(p, {node_, uid_, id});
  adv->next_event = sim_.schedule_desc_on(node_, adv->interval,
                                          sim::kEventBleAdvertFire, p, n);
  // The shared payload keeps delivery events valid even if a later event
  // stops the advertisement (or reallocates the vector) before they fire.
  medium_.broadcast(*this, adv->payload);
}

Status BleRadio::send_datagram(Bytes payload, SendDoneFn done) {
  if (!powered_) return Status::error("BLE radio is off");
  // Datagrams ride advertisement + scan-response, so twice the single-PDU
  // payload is available.
  std::size_t cap = 2 * max_payload();
  if (payload.size() > cap) {
    return Status::error("BLE datagram exceeds " + std::to_string(cap) +
                         " bytes");
  }
  const Duration wait =
      Duration::micros(cal_.ble_fast_adv_interval.as_micros() / 2);
  auto shared = std::make_shared<const Bytes>(std::move(payload));
  // The burst goes on the air at `wait`; receivers hear it one advertising
  // event later (the medium's delivery latency), and completion reports at
  // the same instant the transmission ends.
  sim_.after_on(node_, wait, [this, shared = std::move(shared),
                              done = std::move(done)]() mutable {
    if (!powered_) {
      if (done) done(Status::error("BLE radio powered off mid-send"));
      return;
    }
    meter_.charge_for(cal_.ble_adv_event, cal_.ble_advertise_ma,
                      obs::EnergyRail::kBle);
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->mark_frame(sc->core().ble_adv, obs::Cat::kBleAdv,
                     /*a0=*/shared->size());
    }
    medium_.broadcast(*this, shared, /*reliable_burst=*/true);
    if (done) {
      sim_.after_on(node_, cal_.ble_adv_event,
                    [done = std::move(done)] { done(Status::ok()); });
    }
  });
  return Status::ok();
}

void BleRadio::deliver(const BleAddress& from, const SharedBytes& payload) {
  if (!powered_ || !scanning_) return;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->mark_frame(sc->core().ble_rx, obs::Cat::kBleRx,
                   /*a0=*/payload->size());
  }
  if (on_receive_) on_receive_(from, payload);
}

BleMedium::BleMedium(sim::World& world, const Calibration& cal)
    : world_(world), cal_(cal), lanes_(world.simulator().threads() + 1) {
  // One lane per shard plus the global lane (current_shard_index() returns
  // threads() outside windows).
  world_.simulator().add_barrier_hook([this] { flush_pending(); });
  // The medium owns the BLE descriptor kinds: advert fires, sweep batches,
  // and deferred scan-state applies dispatch here instead of through
  // captured-`this` closures.
  sim::Simulator& sim = world_.simulator();
  sim.register_desc_handler(sim::kEventBleAdvertFire, this,
                            &BleMedium::advert_fire_handler);
  sim.register_desc_handler(sim::kEventBleSweep, this,
                            &BleMedium::sweep_handler);
  sim.register_desc_handler(sim::kEventBleScanApply, this,
                            &BleMedium::scan_apply_handler);
}

BleRadio* BleMedium::find_radio(NodeId node, std::uint32_t uid) {
  if (node >= radios_by_node_.size()) return nullptr;
  for (const RadioState& st : radios_by_node_[node]) {
    if (st.uid == uid) return st.radio;
  }
  return nullptr;
}

void BleMedium::advert_fire_handler(void* ctx, sim::Simulator& /*sim*/,
                                    const sim::EventDesc& d) {
  auto* medium = static_cast<BleMedium*>(ctx);
  BleRadio* radio = medium->find_radio(d.payload_u32(0), d.payload_u32(4));
  if (radio != nullptr) radio->fire_adv(d.payload_u32(8));
}

void BleMedium::sweep_handler(void* ctx, sim::Simulator& /*sim*/,
                              const sim::EventDesc& d) {
  static_cast<BleMedium*>(ctx)->run_sweep(d.payload_u64(0));
}

void BleMedium::scan_apply_handler(void* ctx, sim::Simulator& /*sim*/,
                                   const sim::EventDesc& d) {
  auto* medium = static_cast<BleMedium*>(ctx);
  BleRadio* radio = medium->find_radio(d.payload_u32(0), d.payload_u32(4));
  if (radio != nullptr) medium->apply_scan_state(radio);
}

std::uint64_t BleMedium::delivered_count() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.delivered;
  return n;
}

void BleMedium::attach(BleRadio* radio) {
  if (radio->node() >= radios_by_node_.size()) {
    radios_by_node_.resize(radio->node() + 1);
  }
  if (radio->node() >= fault_salts_.size()) {
    fault_salts_.resize(radio->node() + 1, 0);
  }
  const std::uint32_t uid = next_uid_++;
  radio->uid_ = uid;
  radios_by_node_[radio->node()].push_back(
      RadioState{radio, uid, radio->powered() && radio->scanning(),
                 radio->scan_duty(), radio->scan_slotted()});
  fanout_by_uid_.resize(next_uid_);
  ++medium_epoch_;
}

void BleMedium::detach(BleRadio* radio) {
  if (radio->node() >= radios_by_node_.size()) return;
  auto& on_node = radios_by_node_[radio->node()];
  on_node.erase(std::remove_if(on_node.begin(), on_node.end(),
                               [radio](const RadioState& st) {
                                 return st.radio == radio;
                               }),
                on_node.end());
  ++medium_epoch_;
}

void BleMedium::apply_scan_state(BleRadio* radio) {
  if (radio->node() >= radios_by_node_.size()) return;
  for (RadioState& st : radios_by_node_[radio->node()]) {
    if (st.radio != radio) continue;
    st.scanning = radio->powered() && radio->scanning();
    st.duty = radio->scan_duty();
    st.slotted = radio->scan_slotted();
    ++medium_epoch_;
  }
}

void BleMedium::update_scan_state(BleRadio* radio) {
  sim::Simulator& sim = world_.simulator();
  if (sim.owns_context(sim::kGlobalOwner)) {
    apply_scan_state(radio);
    return;
  }
  // A node-owned event changed the state mid-window: defer the snapshot
  // write to the barrier so concurrent senders keep reading a stable table.
  // Until then the radio keeps its old *eligibility* for capture trials;
  // actual delivery always revalidates against the receiver's live state.
  // The defer is a {node, uid} descriptor: this is a node→global cross-owner
  // post, and as data it can ship between partitioned workers.
  unsigned char p[sim::kEventPayloadMax];
  std::uint8_t n = sim::pack_u32s(p, {radio->node(), radio->uid_});
  sim.schedule_desc_on(sim::kGlobalOwner, Duration::zero(),
                       sim::kEventBleScanApply, p, n);
}

void BleMedium::broadcast(const BleRadio& from, const SharedBytes& payload,
                          bool reliable_burst) {
  // Candidate nodes come from the world's spatial grid (exact-range
  // filtered, ascending by node id, including the sender's own node so
  // co-located radios still hear each other). thread_local scratch: each
  // shard broadcasts concurrently, and broadcast never re-enters itself
  // (receive handlers run in posted delivery events, not inline).
  sim::Simulator& sim = world_.simulator();
  Rng& rng = sim.rng();
  const double capture_p = cal_.ble_capture_probability;
  const Duration latency = cal_.ble_adv_event;
  const BleAddress src_addr = from.address();
  const std::size_t lane_idx = sim.current_shard_index();
  const bool in_window = lane_idx < static_cast<std::size_t>(sim.threads());

  // Fan-out fast path: with a static world and no fault plan, the sender's
  // flattened candidate list (see FanoutCache) replaces the grid query and
  // the per-node RadioState walk — the steady-state fire touches one
  // contiguous array. Candidate order matches the uncached walk exactly, so
  // the capture-trial draw sequence (and with it every downstream event) is
  // identical whichever path runs.
  if (world_.fault_plan() == nullptr && world_.is_static(sim.now())) {
    std::uint32_t self_uid = 0;
    if (from.node() < radios_by_node_.size()) {
      for (const RadioState& st : radios_by_node_[from.node()]) {
        if (st.radio == &from) {
          self_uid = st.uid;
          break;
        }
      }
    }
    if (self_uid != 0) {
      FanoutCache& fc = fanout_by_uid_[self_uid];
      // Per-region validation: the fingerprint folds only the epochs of the
      // regions the sender's disc overlaps, so a topology change across town
      // leaves this sender's cache hot. The center pins the overlapped
      // region set itself (the sender may have moved since the build).
      const sim::Vec2 center = world_.position(from.node());
      const std::uint64_t nb =
          world_.neighborhood_epoch(center, cal_.ble_range_m);
      if (fc.nb_epoch != nb || fc.medium_epoch != medium_epoch_ ||
          !(fc.center == center)) {
        thread_local std::vector<NodeId> rebuild_nodes;
        world_.nodes_near(from.node(), cal_.ble_range_m, rebuild_nodes);
        fc.cands.clear();
        for (NodeId node : rebuild_nodes) {
          if (node >= radios_by_node_.size()) continue;
          for (const RadioState& st : radios_by_node_[node]) {
            if (st.radio == &from || !st.scanning) continue;
            fc.cands.push_back(
                FanoutCandidate{st.radio, st.uid, node, st.duty, st.slotted});
          }
        }
        fc.nb_epoch = nb;
        fc.medium_epoch = medium_epoch_;
        fc.center = center;
      }
      const TimePoint at = sim.now() + latency;
      constexpr std::uint32_t kNoTxIdx = 0xffffffffu;
      std::uint32_t tx_idx = kNoTxIdx;
      for (const FanoutCandidate& c : fc.cands) {
        if (!reliable_burst) {
          // Slotted scanners take the radio capture trial at full strength
          // and realize the duty as a deterministic slot filter; plain duty
          // keeps the historical single Bernoulli(capture * duty) draw.
          if (c.slotted) {
            if (capture_p < 1.0 && !rng.chance(capture_p)) continue;
            if (c.duty < 1.0 && !listen_slot_open(c.node, at, c.duty)) {
              continue;
            }
          } else {
            const double p = capture_p * c.duty;
            if (p < 1.0 && !rng.chance(p)) continue;
          }
        }
        if (in_window) {
          Lane& lane = lanes_[lane_idx];
          if (tx_idx == kNoTxIdx) {
            tx_idx = static_cast<std::uint32_t>(lane.txs.size());
            lane.txs.push_back(PendingTx{at, from.node(), src_addr, payload});
          }
          lane.winners.push_back(PendingWinner{c.node, c.uid, tx_idx});
        } else {
          sim.after_on(c.node, latency,
                       [this, node = c.node, rx_uid = c.uid, src_addr,
                        pl = payload] { deliver(node, rx_uid, src_addr, pl); });
        }
      }
      return;
    }
  }

  thread_local std::vector<NodeId> scratch_nodes;
  std::vector<NodeId>& nodes = scratch_nodes;
  world_.nodes_near(from.node(), cal_.ble_range_m, nodes);
  // Fault injection: draws are stateless hashes of (plan seed, link, time,
  // per-sender frame salt) — no simulator RNG is consumed, so arming a plan
  // leaves the capture-trial sequence untouched, and the draws are
  // independent of how shards interleave. Latency spikes only add delay, so
  // the delivery instant stays >= the engine's lookahead bound.
  const sim::FaultPlan* plan = world_.fault_plan();
  const TimePoint now = sim.now();
  std::uint64_t salt = 0;
  Duration fault_delay = Duration::zero();
  sim::Vec2 src_pos{};
  SharedBytes mangled;
  if (plan != nullptr) {
    salt = ++fault_salts_[from.node()];
    fault_delay = plan->extra_latency(from.node(), sim::FaultPlan::kAnyNode,
                                      sim::FaultRadio::kBle, now);
    if (fault_delay > Duration::zero()) {
      plan->note_delay();
      if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
        sc->mark_on(from.node(), sc->core().fault_delays,
                    obs::Cat::kFaultDelay,
                    static_cast<std::uint64_t>(fault_delay.as_micros()));
      }
    }
    src_pos = world_.position(from.node());
  }
  const bool partitions_now =
      plan != nullptr && plan->partition_active(now);
  const TimePoint at = now + latency + fault_delay;
  // The transmission record is created lazily on the first winner, so a
  // frame nobody captures costs nothing at the flush. A corrupted frame gets
  // its own record (same instant/sender, mangled payload).
  constexpr std::uint32_t kNoTx = 0xffffffffu;
  std::uint32_t tx_idx = kNoTx;
  std::uint32_t mangled_tx_idx = kNoTx;
  for (NodeId node : nodes) {
    if (node >= radios_by_node_.size()) continue;
    bool corrupt_here = false;
    if (plan != nullptr && node != from.node()) {
      if (partitions_now &&
          plan->partitioned(src_pos, world_.position(node), now)) {
        plan->note_partition_drop();
        if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
          sc->mark_on(from.node(), sc->core().fault_partition_drops,
                      obs::Cat::kFaultPartition, node);
        }
        continue;
      }
      if (plan->dropped(from.node(), node, sim::FaultRadio::kBle, now,
                        salt)) {
        plan->note_drop();
        if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
          sc->mark_on(from.node(), sc->core().fault_drops,
                      obs::Cat::kFaultDrop, node);
        }
        continue;
      }
      corrupt_here =
          plan->corrupted(from.node(), node, sim::FaultRadio::kBle, now, salt);
      if (corrupt_here && mangled == nullptr) {
        auto copy = std::make_shared<Bytes>(*payload);
        sim::FaultPlan::corrupt_in_place(*copy, salt);
        mangled = std::move(copy);
      }
    }
    for (const RadioState& st : radios_by_node_[node]) {
      if (st.radio == &from || !st.scanning) continue;
      if (!reliable_burst) {
        if (st.slotted) {
          if (capture_p < 1.0 && !rng.chance(capture_p)) continue;
          if (st.duty < 1.0 && !listen_slot_open(node, at, st.duty)) continue;
        } else {
          double p = capture_p * st.duty;
          if (p < 1.0 && !rng.chance(p)) continue;
        }
      }
      if (corrupt_here) {
        plan->note_corruption();
        if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
          sc->mark_on(from.node(), sc->core().fault_corruptions,
                      obs::Cat::kFaultCorrupt, node);
        }
      }
      if (in_window) {
        // Record the winner in this shard's lane; the barrier hook batches
        // the window's winners into one sweep event per (instant, receiver).
        // The delivery instant (transmission + min_latency >= the engine's
        // lookahead) always lands past the window end.
        Lane& lane = lanes_[lane_idx];
        std::uint32_t& idx = corrupt_here ? mangled_tx_idx : tx_idx;
        if (idx == kNoTx) {
          idx = static_cast<std::uint32_t>(lane.txs.size());
          lane.txs.push_back(PendingTx{at, from.node(), src_addr,
                                       corrupt_here ? mangled : payload});
        }
        lane.winners.push_back(PendingWinner{node, st.uid, idx});
      } else {
        // Setup code or a global event: every queue is quiescent, schedule
        // the delivery on the receiver's owner directly.
        sim.after_on(node, latency + fault_delay,
                     [this, node, rx_uid = st.uid, src_addr,
                      pl = corrupt_here ? mangled : payload] {
                       deliver(node, rx_uid, src_addr, pl);
                     });
      }
    }
  }
}

void BleMedium::flush_pending() {
  std::size_t total = 0;
  std::size_t total_tx = 0;
  for (const Lane& lane : lanes_) {
    total += lane.winners.size();
    total_tx += lane.txs.size();
  }
  if (total == 0) return;
  // Claim a recycled batch: the first whose sweeps have all run. Slot
  // choice is deterministic — whether a prior window's sweeps finished
  // depends only on simulated event times, never on wall-clock or thread
  // count — and immaterial anyway (the slot is pure storage).
  std::size_t slot = 0;
  for (; slot < sweep_batches_.size(); ++slot) {
    if (sweep_batches_[slot]->remaining.load(std::memory_order_acquire) ==
        0) {
      break;
    }
  }
  if (slot == sweep_batches_.size()) {
    sweep_batches_.push_back(std::make_unique<SweepBatch>());
  }
  SweepBatch& sweep = *sweep_batches_[slot];
  // Concatenate the per-shard transmission records, rebasing each lane's
  // winner->tx indices by its lane offset as the winners are scattered.
  std::vector<PendingTx>* txs = &sweep.txs;
  txs->clear();
  txs->reserve(total_tx);
  // Canonical order: each receiver hears the window's frames in (time,
  // sending node) order — a total order independent of the shard partition.
  // A comparison sort of the whole batch dominated the flush, so bucket by
  // receiver with a counting scatter (dense node ids) and finish each
  // receiver's handful of frames with a stable insertion sort. Ties (one
  // sender, several same-instant frames) sit in a single lane in
  // transmission order, and the scatter preserves lane order, so the result
  // is identical at any thread count.
  const std::size_t nbuckets = radios_by_node_.size();
  bucket_starts_.assign(nbuckets + 1, 0);
  for (const Lane& lane : lanes_) {
    for (const PendingWinner& rec : lane.winners) {
      ++bucket_starts_[rec.dst + 1];
    }
  }
  for (std::size_t d = 0; d < nbuckets; ++d) {
    bucket_starts_[d + 1] += bucket_starts_[d];
  }
  std::vector<PendingWinner>* batch = &sweep.winners;
  batch->assign(total, PendingWinner{});
  bucket_fill_ = bucket_starts_;
  for (Lane& lane : lanes_) {
    const std::uint32_t base = static_cast<std::uint32_t>(txs->size());
    for (PendingTx& tx : lane.txs) txs->push_back(std::move(tx));
    lane.txs.clear();
    for (const PendingWinner& rec : lane.winners) {
      (*batch)[bucket_fill_[rec.dst]++] =
          PendingWinner{rec.dst, rec.rx_uid, rec.tx + base};
    }
    lane.winners.clear();
  }
  auto earlier = [txs](const PendingWinner& a, const PendingWinner& b) {
    const PendingTx& ta = (*txs)[a.tx];
    const PendingTx& tb = (*txs)[b.tx];
    if (ta.at != tb.at) return ta.at < tb.at;
    return ta.src < tb.src;
  };
  for (std::size_t d = 0; d < nbuckets; ++d) {
    std::size_t b = bucket_starts_[d], e = bucket_starts_[d + 1];
    if (e - b < 2) continue;
    if (e - b > 64) {
      // Degenerate fan-in (burst floods); insertion sort would go quadratic.
      std::stable_sort(batch->begin() + static_cast<std::ptrdiff_t>(b),
                       batch->begin() + static_cast<std::ptrdiff_t>(e),
                       earlier);
      continue;
    }
    for (std::size_t k = b + 1; k < e; ++k) {
      PendingWinner rec = (*batch)[k];
      std::size_t m = k;
      for (; m > b && earlier(rec, (*batch)[m - 1]); --m) {
        (*batch)[m] = (*batch)[m - 1];
      }
      (*batch)[m] = rec;
    }
  }
  sim::Simulator& sim = world_.simulator();
  std::size_t i = 0;
  std::uint32_t sweeps = 0;
  while (i < batch->size()) {
    const PendingWinner& head = (*batch)[i];
    const TimePoint head_at = (*txs)[head.tx].at;
    std::size_t j = i + 1;
    while (j < batch->size() && (*batch)[j].dst == head.dst &&
           (*txs)[(*batch)[j].tx].at == head_at) {
      ++j;
    }
    const std::uint64_t packed = (static_cast<std::uint64_t>(slot) << 48) |
                                 (static_cast<std::uint64_t>(i) << 24) |
                                 static_cast<std::uint64_t>(j);
    OMNI_ASSERTF(slot < (1u << 16) && j < (1u << 24),
                 "sweep range exceeds packed encoding (slot %zu, j %zu)",
                 slot, j);
    unsigned char p[sim::kEventPayloadMax];
    std::uint8_t n = sim::pack_u64(p, packed);
    sim.schedule_desc_at_on(head.dst, head_at, sim::kEventBleSweep, p, n);
    ++sweeps;
    i = j;
  }
  // Events cannot dispatch until this barrier hook returns, so arming the
  // countdown after scheduling is race-free.
  sweep.remaining.store(sweeps, std::memory_order_release);
}

void BleMedium::run_sweep(std::uint64_t packed) {
  SweepBatch& sweep = *sweep_batches_[packed >> 48];
  deliver_batch(sweep.txs, sweep.winners,
                (packed >> 24) & 0xffffffu, packed & 0xffffffu);
  sweep.remaining.fetch_sub(1, std::memory_order_release);
}

void BleMedium::deliver_batch(const std::vector<PendingTx>& txs,
                              const std::vector<PendingWinner>& batch,
                              std::size_t begin, std::size_t end) {
  std::uint64_t delivered = 0;
  for (std::size_t k = begin; k < end; ++k) {
    const PendingWinner& rec = batch[k];
    const PendingTx& tx = txs[rec.tx];
    delivered += deliver_uncounted(rec.dst, rec.rx_uid, tx.from, tx.payload);
  }
  if (delivered != 0) {
    lanes_[world_.simulator().current_shard_index()].delivered += delivered;
  }
}

void BleMedium::deliver(NodeId node, std::uint32_t rx_uid,
                        const BleAddress& from, const SharedBytes& payload) {
  if (deliver_uncounted(node, rx_uid, from, payload)) {
    ++lanes_[world_.simulator().current_shard_index()].delivered;
  }
}

bool BleMedium::deliver_uncounted(NodeId node, std::uint32_t rx_uid,
                                  const BleAddress& from,
                                  const SharedBytes& payload) {
  if (node >= radios_by_node_.size()) return false;
  for (const RadioState& st : radios_by_node_[node]) {
    if (st.uid != rx_uid) continue;  // radio detached since the broadcast
    st.radio->deliver(from, payload);
    return true;
  }
  return false;
}

}  // namespace omni::radio
