#include "omni/manager.h"

#include "obs/omniscope.h"

#include <algorithm>
#include <array>
#include <variant>

#include "common/hash.h"
#include "common/logging.h"
#include "sim/snapshot.h"
#include "sim/world.h"

namespace omni {

namespace {
constexpr const char* kTag = "omni.manager";

/// splitmix64 finalizer: stateless deterministic jitter for backoff delays
/// (no simulator RNG draw, so healing never perturbs existing streams).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

OmniManager::OmniManager(sim::Simulator& sim, OmniAddress self,
                         ManagerOptions options)
    : sim_(sim),
      self_(self),
      options_(options),
      receive_queue_(sim),
      shared_receive_queue_(sim),
      response_queue_(sim),
      current_beacon_interval_(options.beacon_interval) {
  OMNI_CHECK_MSG(self_.is_valid(), "manager needs a valid omni_address");
  // The manager's protocol state is single-context: drain its queues on the
  // owning node's shard (or the global phase for standalone managers).
  // Shared-medium receptions stay global (see shared_receive_queue_) —
  // mutation from both contexts is safe because shard windows and the
  // global phase never overlap.
  receive_queue_.set_owner(options_.owner);
  shared_receive_queue_.set_owner(sim::kGlobalOwner);
  response_queue_.set_owner(options_.owner);
  if (!options_.context_key.empty()) {
    cipher_.emplace(std::span<const std::uint8_t>(options_.context_key));
    // Derive a device-unique nonce space so two devices sharing a key never
    // collide.
    next_nonce_ = self_.value << 20;
  }
  maintenance_slot_ =
      sim_.register_callback_slot(this, &OmniManager::maintenance_thunk);
  peer_sweep_slot_ =
      sim_.register_callback_slot(this, &OmniManager::peer_sweep_thunk);
}

SharedBytes OmniManager::maybe_seal(Bytes packed) {
  if (!cipher_) return std::make_shared<const Bytes>(std::move(packed));
  return std::make_shared<const Bytes>(cipher_->seal(packed, next_nonce_++));
}

OmniManager::~OmniManager() {
  if (running_) stop();
  sim_.unregister_callback_slot(peer_sweep_slot_);
  sim_.unregister_callback_slot(maintenance_slot_);
}

void OmniManager::add_technology(CommTechnology& tech) {
  OMNI_CHECK_MSG(!running_, "add_technology before start()");
  for (const auto& s : slots_) {
    OMNI_CHECK_MSG(s.tech->type() != tech.type(),
                   "duplicate technology registration");
  }
  TechSlot slot;
  slot.tech = &tech;
  slot.type = tech.type();
  slot.supports_context = tech.supports_context();
  slot.send_queue = std::make_unique<SimQueue<SendRequest>>(sim_);
  // Plugins whose send path drives shared infrastructure (the WiFi mesh)
  // must process requests barrier-serialized; node-local radios drain on
  // the owner's shard.
  slot.send_queue->set_owner(tech.uses_shared_medium() ? sim::kGlobalOwner
                                                       : options_.owner);
  slots_.push_back(std::move(slot));
}

OmniManager::TechSlot* OmniManager::slot(Technology tech) {
  for (auto& s : slots_) {
    if (s.type == tech) return &s;
  }
  return nullptr;
}

const OmniManager::TechSlot* OmniManager::slot(Technology tech) const {
  for (const auto& s : slots_) {
    if (s.type == tech) return &s;
  }
  return nullptr;
}

bool OmniManager::technology_up(Technology tech) const {
  const TechSlot* s = slot(tech);
  return s != nullptr && s->up;
}

bool OmniManager::technology_engaged(Technology tech) const {
  const TechSlot* s = slot(tech);
  return s != nullptr && s->up && s->tech->engaged();
}

bool OmniManager::technology_quarantined(Technology tech) const {
  const TechSlot* s = slot(tech);
  return s != nullptr && quarantined(*s);
}

bool OmniManager::technology_beaconing(Technology tech) const {
  const TechSlot* s = slot(tech);
  return s != nullptr && s->beaconing;
}

// --- Self-healing ------------------------------------------------------------

Duration OmniManager::backoff_delay(int attempt) {
  const auto& sh = options_.self_healing;
  // Base scales with the live beacon cadence: when the discovery scheduler
  // has backed the interval off past backoff_base, retrying faster than we
  // advertise is wasted work. At the defaults (500 ms base, 500 ms fixed
  // interval) this is exactly the historical backoff_base.
  Duration d = std::max(sh.backoff_base, current_beacon_interval_);
  for (int i = 1; i < attempt && d < sh.backoff_max; ++i) d = d + d;
  if (d > sh.backoff_max) d = sh.backoff_max;
  if (sh.backoff_jitter > 0) {
    std::uint64_t h = mix64(self_.value ^ mix64(++backoff_draws_));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    d = d * (1.0 + sh.backoff_jitter * (2.0 * u - 1.0));
  }
  return d;
}

sim::EventHandle OmniManager::arm_deadline(std::uint64_t request_id,
                                           Duration budget) {
  return sim_.after_on(options_.owner, budget, [this, request_id] {
    on_attempt_deadline(request_id);
  });
}

void OmniManager::on_attempt_deadline(std::uint64_t request_id) {
  // The attempt outlived its budget with no TechResponse (silently stalled
  // technology): fail it over exactly as an explicit failure would (paper
  // §3.3). A late real response finds the request id gone and is ignored.
  if (auto it = data_attempts_.find(request_id); it != data_attempts_.end()) {
    ++stats_.deadline_failovers;
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->count_on(options_.owner, sc->core().deadline_failovers);
      sc->instant_on(options_.owner, obs::Cat::kDeadline, request_id, 0,
                     static_cast<std::uint8_t>(it->second.tech));
    }
    TechResponse r;
    r.request_id = request_id;
    r.op = SendOp::kSendData;
    r.tech = it->second.tech;
    r.success = false;
    r.failure_reason = "no response within deadline";
    handle_data_response(r);
    return;
  }
  auto it = context_attempts_.find(request_id);
  if (it == context_attempts_.end()) return;
  ++stats_.deadline_failovers;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->count_on(options_.owner, sc->core().deadline_failovers);
    sc->instant_on(options_.owner, obs::Cat::kDeadline, request_id, 0,
                   static_cast<std::uint8_t>(it->second.tech));
  }
  TechResponse r;
  r.request_id = request_id;
  r.op = it->second.op;
  r.tech = it->second.tech;
  r.context_id = it->second.id;
  r.success = false;
  r.failure_reason = "no response within deadline";
  handle_context_response(r);
}

void OmniManager::note_status_flap(TechSlot& s) {
  const auto& sh = options_.self_healing;
  if (!running_) return;
  TimePoint now = sim_.now();
  if (s.flaps == 0 || now - s.flap_window_start > sh.flap_window) {
    s.flap_window_start = now;
    s.flaps = 0;
  }
  ++s.flaps;
  if (s.flaps < sh.flap_threshold || quarantined(s)) return;
  // Circuit breaker: the radio is flapping faster than engagement can
  // usefully follow. Bench it for a backoff-scaled hold, then re-probe.
  ++stats_.quarantines;
  ++s.quarantine_count;
  s.flaps = 0;
  Duration hold = backoff_delay(s.quarantine_count);
  s.quarantined_until = now + hold;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->count_on(options_.owner, sc->core().quarantines);
    sc->instant_on(options_.owner, obs::Cat::kQuarantine,
                   static_cast<std::uint64_t>(hold.as_micros()), 0,
                   static_cast<std::uint8_t>(s.type));
  }
  OMNI_DEBUG(now, kTag, "quarantining flapping %s for %s",
             to_string(s.type).c_str(), hold.to_string().c_str());
  if (s.up) {
    stop_beaconing_on(s.type);
  } else {
    s.beaconing = false;  // the carrier is gone; nothing to withdraw
  }
  if (s.tech->engaged()) s.tech->set_engaged(false);
  Technology tech = s.type;
  s.quarantine_end.cancel();
  s.quarantine_end = sim_.after_on(options_.owner, hold, [this, tech] {
    TechSlot* qs = slot(tech);
    if (qs == nullptr || !running_) return;
    qs->quarantined_until = TimePoint::origin();
    qs->flaps = 0;
    if (!qs->up) return;
    // Re-probe: restore the role the technology would hold after a normal
    // recovery (primary carrier, or beaconing everywhere sans engagement).
    Technology primary = primary_context_tech();
    if (qs->supports_context &&
        (!options_.enable_engagement || tech == primary)) {
      qs->tech->set_engaged(true);
      start_beaconing_on(tech);
    }
  });
}

void OmniManager::schedule_beacon_rearm(TechSlot& s) {
  if (!running_ || s.beacon_rearm.pending()) return;
  ++stats_.beacon_rearms;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->instant_on(options_.owner, obs::Cat::kRetry, s.beacon_failures, 0,
                   static_cast<std::uint8_t>(s.type));
  }
  Technology tech = s.type;
  s.beacon_rearm =
      sim_.after_on(options_.owner, backoff_delay(s.beacon_failures),
                    [this, tech] {
                      TechSlot* rs = slot(tech);
                      if (rs == nullptr || !running_ || !usable(*rs)) return;
                      if (rs->beaconing || !rs->tech->engaged()) return;
                      start_beaconing_on(tech);
                    });
}

void OmniManager::start() {
  OMNI_CHECK_MSG(!running_, "manager already started");
  OMNI_CHECK_MSG(!slots_.empty(), "no technologies registered");
  running_ = true;

  receive_queue_.set_consumer(
      [this] { drain_packets(receive_queue_, receive_scratch_); });
  shared_receive_queue_.set_consumer([this] {
    drain_packets(shared_receive_queue_, shared_receive_scratch_);
  });
  response_queue_.set_consumer([this] { drain_response_queue(); });

  // Enable every technology and collect low-level addresses for the beacon.
  for (auto& s : slots_) {
    TechQueues queues{s.send_queue.get(),
                      s.tech->uses_shared_medium() ? &shared_receive_queue_
                                                   : &receive_queue_,
                      &response_queue_};
    EnableResult result = s.tech->enable(queues);
    s.address = result.address;
    s.up = true;
    if (std::holds_alternative<BleAddress>(result.address)) {
      beacon_info_.ble = std::get<BleAddress>(result.address);
    } else if (std::holds_alternative<MeshAddress>(result.address)) {
      beacon_info_.mesh = std::get<MeshAddress>(result.address);
    }
  }
  // The wire frame is encoded (and sealed) lazily by beacon_wire(); bumping
  // the info generation here makes the first use after a (re)start re-encode
  // against the freshly collected addresses.
  ++beacon_gen_;

  // Engage the lowest-energy context technology; the rest probe-listen
  // unless engagement is disabled, in which case everything beacons
  // (ubiSOAP-style, used by the ablation bench).
  Technology primary = primary_context_tech();
  for (auto& s : slots_) {
    if (!s.tech->supports_context()) {
      s.tech->set_engaged(false);
      continue;
    }
    bool engage_now =
        !options_.enable_engagement || s.tech->type() == primary;
    s.tech->set_engaged(engage_now);
    if (engage_now) start_beaconing_on(s.tech->type());
  }

  // Sweep before maintenance: both land on the same instants (k x interval),
  // and scheduling the sweep first gives it the smaller sequence number, so
  // peer expiry precedes the discovery controller's tick.
  schedule_peer_sweep();
  schedule_maintenance();
}

void OmniManager::stop() {
  if (!running_) return;
  running_ = false;
  maintenance_event_.cancel();
  peer_sweep_event_.cancel();
  // Drain the op tables (leak invariant: nothing survives a stop). In-flight
  // attempts are abandoned — their deadlines are cancelled and their pending
  // ops fail asynchronously, like every other failure path.
  for (auto& [rid, attempt] : data_attempts_) attempt.deadline.cancel();
  data_attempts_.clear();
  for (auto& [rid, attempt] : context_attempts_) attempt.deadline.cancel();
  context_attempts_.clear();
  for (auto& [op_id, op] : pending_data_) {
    StatusCallback cb = op.callback;
    OmniAddress dest = op.dest;
    sim_.after(Duration::zero(), [cb, dest] {
      ResponseInfo info;
      info.destination = dest;
      info.failure_description = "manager stopped";
      if (cb) cb(StatusCode::kSendDataFailure, info);
    });
  }
  pending_data_.clear();
  for (auto& s : slots_) {
    if (s.up) s.tech->disable();
    s.up = false;
    s.beaconing = false;
    s.beacon_rearm.cancel();
    s.quarantine_end.cancel();
    s.beacon_failures = 0;
    s.flaps = 0;
    s.quarantined_until = TimePoint::origin();
  }
  receive_queue_.clear_consumer();
  shared_receive_queue_.clear_consumer();
  response_queue_.clear_consumer();
}

Technology OmniManager::primary_context_tech() const {
  Technology best = Technology::kBle;
  int best_rank = INT32_MAX;
  for (const auto& s : slots_) {
    if (!s.tech->supports_context()) continue;
    if (running_ && !usable(s)) continue;
    int rank = static_cast<int>(s.tech->type());
    if (rank < best_rank) {
      best_rank = rank;
      best = s.tech->type();
    }
  }
  return best;
}

// --- Beaconing & engagement --------------------------------------------------

const SharedBytes& OmniManager::beacon_wire() {
  // Sender-side frame cache: re-encode (and re-seal) only when the beacon
  // content could have changed — beacon_info_ mutated (start, address
  // rotation) or the context set moved. The context generation is a
  // conservative key: the address beacon does not embed contexts today, so a
  // context change costs one spurious re-encode; keeping it in the key
  // matches the documented invalidation rule (beacon info, context set, or
  // seal key — the last is fixed at construction). Sealing consumes a fresh
  // nonce only on re-encode, so every hand-out of the cached frame shares
  // one buffer.
  if (beacon_wire_gen_ != beacon_gen_ ||
      beacon_wire_ctx_gen_ != contexts_.generation()) {
    beacon_packed_ =
        maybe_seal(PackedStruct::address_beacon(self_, beacon_info_).encode());
    beacon_wire_gen_ = beacon_gen_;
    beacon_wire_ctx_gen_ = contexts_.generation();
    ++stats_.beacon_encodes;
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->count_on(options_.owner, sc->core().beacon_encodes);
    }
  } else {
    ++stats_.beacon_frames_cached;
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->count_on(options_.owner, sc->core().beacon_frames_cached);
    }
  }
  return beacon_packed_;
}

void OmniManager::start_beaconing_on(Technology tech) {
  TechSlot* s = slot(tech);
  if (s == nullptr || !s->up || s->beaconing) return;
  SendRequest req;
  req.request_id = next_request_id();
  req.op = SendOp::kAddContext;
  req.context_id = beacon_context_id(tech);
  req.interval = current_beacon_interval_;
  req.packed = beacon_wire();
  s->send_queue->push(std::move(req));
  s->beaconing = true;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->instant_on(options_.owner, obs::Cat::kBeaconOn, 0, 0,
                   static_cast<std::uint8_t>(tech));
  }
}

void OmniManager::stop_beaconing_on(Technology tech) {
  TechSlot* s = slot(tech);
  if (s == nullptr || !s->beaconing) return;
  SendRequest req;
  req.request_id = next_request_id();
  req.op = SendOp::kRemoveContext;
  req.context_id = beacon_context_id(tech);
  s->send_queue->push(std::move(req));
  s->beaconing = false;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->instant_on(options_.owner, obs::Cat::kBeaconOff, 0, 0,
                   static_cast<std::uint8_t>(tech));
  }
}

void OmniManager::engage(Technology tech) {
  TechSlot* s = slot(tech);
  if (s == nullptr || !usable(*s) || !s->tech->supports_context()) return;
  if (s->tech->engaged()) return;
  OMNI_DEBUG(sim_.now(), kTag, "engaging %s", to_string(tech).c_str());
  ++stats_.engagements;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->count_on(options_.owner, sc->core().engagements);
    sc->instant_on(options_.owner, obs::Cat::kEngage, 0, 0,
                   static_cast<std::uint8_t>(tech));
  }
  s->tech->set_engaged(true);
  start_beaconing_on(tech);
  // Application contexts that could not be placed before may fit now; they
  // stay where they are otherwise (re-homing happens on failure).
}

void OmniManager::disengage(Technology tech) {
  if (tech == primary_context_tech()) return;  // primary never disengages
  TechSlot* s = slot(tech);
  if (s == nullptr || !s->tech->engaged()) return;
  OMNI_DEBUG(sim_.now(), kTag, "disengaging %s", to_string(tech).c_str());
  ++stats_.disengagements;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->instant_on(options_.owner, obs::Cat::kDisengage, 0, 0,
                   static_cast<std::uint8_t>(tech));
  }
  stop_beaconing_on(tech);
  s->tech->set_engaged(false);
}

void OmniManager::schedule_maintenance() {
  // Pinned to the manager's owner: start() runs in setup/global context, but
  // the tick must live on the owning node's shard with the rest of the
  // manager's state. Scheduled as a {u32 slot} descriptor, so the recurring
  // tick costs 4 inline payload bytes per schedule instead of a closure.
  maintenance_event_ =
      sim_.schedule_slot_on(options_.owner, options_.probe_interval,
                            sim::kEventMgrMaintenance, maintenance_slot_);
}

void OmniManager::maintenance_thunk(void* ctx) {
  auto* mgr = static_cast<OmniManager*>(ctx);
  mgr->maintenance_tick();
  if (mgr->running_) mgr->schedule_maintenance();
}

void OmniManager::readvertise_beacon(Duration interval) {
  for (auto& s : slots_) {
    if (!s.up || !s.beaconing) continue;
    SendRequest req;
    req.request_id = next_request_id();
    req.op = SendOp::kUpdateContext;
    req.context_id = beacon_context_id(s.type);
    req.interval = interval;
    req.packed = beacon_wire();
    s.send_queue->push(std::move(req));
  }
}

// --- Adaptive discovery scheduler (DiscoveryPolicy::kAdaptive) ---------------
//
// Every input is owner-local and deterministic: the PeerTable insert counter,
// the World's static neighbor cache (queried from this node's own shard
// context), and an owner-hashed jitter stream. No simulator RNG draw, no
// cross-shard read — results are bit-identical at any --threads.

std::size_t OmniManager::discovery_occupancy() {
  if (options_.world != nullptr && options_.owner != sim::kGlobalOwner) {
    // Region occupancy: residents within radio range, whether or not they
    // beacon with our key. This sees crowd density the PeerTable cannot.
    options_.world->nodes_near(static_cast<NodeId>(options_.owner),
                               options_.discovery.density_range_m,
                               density_scratch_);
    // nodes_near includes the querying node itself; occupancy counts
    // *neighbors*, so an isolated pair must read 1, not 2.
    std::size_t region = density_scratch_.size();
    if (region > 0) --region;
    return std::max(region, peers_.size());
  }
  return peers_.size();
}

Duration OmniManager::scaled_context_interval(Duration app_interval) const {
  if (options_.discovery.mode != DiscoveryPolicy::Mode::kAdaptive) {
    return app_interval;
  }
  const std::int64_t floor_us = options_.beacon_interval.as_micros();
  const std::int64_t cur_us = current_beacon_interval_.as_micros();
  if (floor_us <= 0 || cur_us <= floor_us) return app_interval;
  return app_interval * (static_cast<double>(cur_us) /
                         static_cast<double>(floor_us));
}

void OmniManager::push_beacon_interval(Duration interval) {
  current_beacon_interval_ = interval;
  // Owner-hashed deterministic jitter on the *advertised* interval:
  // desynchronizes neighbors that would otherwise back off in lockstep,
  // without touching any simulator RNG stream. The unjittered value stays in
  // current_beacon_interval_ so controller decisions (and tests) compare
  // against exact tier values.
  //
  // The jittered value is then quantized back onto the floor lattice
  // (nearest multiple of beacon_interval, never below it). Neighbors that
  // started together and back off by doubling keep beaconing at shared
  // instants, so the medium's per-window delivery batching survives the
  // backoff — an un-quantized interval would spread receptions over distinct
  // windows and *raise* the event count while lowering the beacon count.
  const double jitter = options_.discovery.jitter;
  Duration adv = interval;
  if (jitter > 0.0) {
    const std::uint64_t h = mix64(self_.value ^ mix64(++discovery_draws_));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    adv = interval * (1.0 + jitter * (2.0 * u - 1.0));
  }
  const std::int64_t lattice_us = options_.beacon_interval.as_micros();
  if (lattice_us > 0) {
    std::int64_t q_us =
        (adv.as_micros() + lattice_us / 2) / lattice_us * lattice_us;
    if (q_us < lattice_us) q_us = lattice_us;
    adv = Duration::micros(q_us);
  }
  readvertise_beacon(adv);
  // Re-pace the application contexts by the same backoff factor: their
  // receivers are the very peers whose saturation drove the interval up, and
  // a new-peer snap restores the app-chosen cadence instantly. The paper
  // leaves adaptive context cadence as future work (ContextParams::interval);
  // the discovery controller supplies the density signal it was missing.
  // These updates carry no attempt bookkeeping — a failed re-pace (e.g. a
  // context whose add is still in flight) is a silent no-op and the next
  // interval change retries.
  for (auto& s : slots_) {
    if (!s.up) continue;
    for (ContextId id : contexts_.on_tech(s.type)) {
      if (is_internal_context(id)) continue;
      ContextRecord* rec = contexts_.find(id);
      if (rec == nullptr || !rec->active) continue;
      SendRequest req;
      req.request_id = next_request_id();
      req.op = SendOp::kUpdateContext;
      req.context_id = id;
      req.interval = scaled_context_interval(rec->params.interval);
      req.packed = packed_context(*rec);
      s.send_queue->push(std::move(req));
    }
  }
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->observe_on(options_.owner, sc->core().beacon_interval_ms,
                   static_cast<double>(interval.as_millis()));
  }
}

void OmniManager::discovery_snap_to_floor() {
  if (current_beacon_interval_ > options_.beacon_interval) {
    push_beacon_interval(options_.beacon_interval);
  }
  if (discovery_scan_duty_ != 0.0) {
    discovery_scan_duty_ = 0.0;
    for (auto& s : slots_) s.tech->set_discovery_scan_duty(0.0);
  }
}

void OmniManager::discovery_note_inserts() {
  if (options_.discovery.mode != DiscoveryPolicy::Mode::kAdaptive) return;
  const std::uint64_t ins = peers_.inserts();
  if (ins == discovery_last_inserts_) return;
  // A genuinely new peer appeared (refreshes don't move the insert counter):
  // re-advertise at the floor right away so the entrant's discovery latency
  // is bounded by the floor, not by the backed-off interval, and restore the
  // full listen duty. The consumed delta also marks this window as churned,
  // so the next tick ramps from the floor instead of holding the ceiling.
  discovery_last_inserts_ = ins;
  discovery_snap_to_floor();
}

void OmniManager::discovery_tick() {
  const DiscoveryPolicy& p = options_.discovery;
  if (p.mode != DiscoveryPolicy::Mode::kAdaptive) return;
  const Duration floor = options_.beacon_interval;
  // New-peer rate since the last look. The receive path normally consumes
  // inserts as they happen (discovery_note_inserts), so a nonzero delta here
  // only catches churn on paths that bypassed it.
  const std::uint64_t ins = peers_.inserts();
  const bool churned = ins != discovery_last_inserts_;
  discovery_last_inserts_ = ins;

  // Density-tiered ceiling: a dense neighborhood has redundant beacon
  // coverage and tolerates the slowest cadence; a sparse-but-nonempty one
  // backs off conservatively; an isolated node holds the floor so a first
  // encounter is never slower than the paper's fixed schedule.
  const std::size_t occupancy = discovery_occupancy();
  Duration allowed = floor;
  if (occupancy >= p.dense_peers) {
    allowed = p.ceiling;
  } else if (occupancy >= p.sparse_peers) {
    allowed = p.sparse_ceiling;
  }
  Duration target = churned
                        ? floor
                        : std::min(allowed, current_beacon_interval_ * p.ramp);
  if (target < floor) target = floor;
  if (target != current_beacon_interval_) push_beacon_interval(target);

  // Beacons saved versus the floor cadence over the window just ending.
  if (current_beacon_interval_ > floor) {
    const double saved = options_.probe_interval / floor -
                         options_.probe_interval / current_beacon_interval_;
    const auto n = static_cast<std::uint64_t>(saved > 0.0 ? saved + 0.5 : 0.0);
    if (n > 0) {
      stats_.beacons_suppressed += n;
      if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
        sc->count_on(options_.owner, sc->core().beacons_suppressed, n);
      }
    }
  }

  // Karowski-Miller listen scheduling: once the neighborhood is saturated
  // (dense) and stable (no churn), a full-duty passive scan mostly re-hears
  // peers it already knows. Cap the duty so expected distinct coverage per
  // maintenance window stays ~dense_peers sightings; the cap only scales the
  // capture probability of periodic discovery traffic — reliable data bursts
  // bypass the capture trial entirely (see BleMedium::broadcast).
  double duty = 0.0;
  if (!churned && occupancy >= p.dense_peers && occupancy > 0) {
    duty = static_cast<double>(p.dense_peers) / static_cast<double>(occupancy);
    duty = std::clamp(duty, p.min_scan_duty, 1.0);
    if (duty >= 1.0) duty = 0.0;  // full duty == no cap
  }
  if (duty != discovery_scan_duty_) {
    discovery_scan_duty_ = duty;
    for (auto& s : slots_) s.tech->set_discovery_scan_duty(duty);
  }
  if (duty > 0.0) {
    ++stats_.scan_windows_skipped;
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->count_on(options_.owner, sc->core().scan_windows_skipped);
    }
  }
}

void OmniManager::schedule_peer_sweep() {
  // Amortized, owner-local peer expiry (no per-reception scans): the sweep
  // self-reschedules before doing its work, so at every shared instant its
  // sequence number stays below the maintenance tick's — inductively
  // preserving the expire-then-adapt order the old combined tick had.
  peer_sweep_event_ =
      sim_.schedule_slot_on(options_.owner, options_.probe_interval,
                            sim::kEventMgrPeerSweep, peer_sweep_slot_);
}

void OmniManager::peer_sweep_thunk(void* ctx) {
  static_cast<OmniManager*>(ctx)->peer_sweep_fired();
}

void OmniManager::peer_sweep_fired() {
  if (!running_) return;
  schedule_peer_sweep();
  // Under the adaptive policy the horizon stretches with each peer's
  // observed beacon interval so that a backed-off beaconer gets the
  // same missed-beacon budget (ttl / floor tries) the fixed baseline
  // grants a floor-rate one — scaling wall-clock alone leaves the
  // sweep racing capture losses around every ramp transition.
  const std::int64_t floor_us =
      std::max<std::int64_t>(1, options_.beacon_interval.as_micros());
  const double hint_scale =
      options_.discovery.mode == DiscoveryPolicy::Mode::kAdaptive
          ? static_cast<double>(options_.peer_ttl.as_micros()) /
                static_cast<double>(floor_us)
          : 0.0;
  peers_.expire(sim_.now(), options_.peer_ttl, hint_scale);
  ++stats_.peer_expire_sweeps;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->count_on(options_.owner, sc->core().peer_expire_sweeps);
  }
}

void OmniManager::maintenance_tick() {
  discovery_tick();
  if (!options_.enable_engagement) return;
  // Disengage any engaged non-primary context technology on which every
  // recently-heard peer is also reachable via a lower-energy technology.
  Technology primary = primary_context_tech();
  for (auto& s : slots_) {
    Technology tech = s.tech->type();
    if (!s.up || !s.tech->supports_context() || tech == primary) continue;
    if (!s.tech->engaged()) continue;
    auto peers_here = peers_.peers_on(tech, sim_.now(), options_.peer_ttl);
    bool all_covered = true;
    for (OmniAddress peer : peers_here) {
      if (!peers_.reachable_on_lower_energy(peer, tech, sim_.now(),
                                            options_.peer_ttl)) {
        all_covered = false;
        break;
      }
    }
    if (all_covered) disengage(tech);
  }
}

// --- Receive path ------------------------------------------------------------

void OmniManager::drain_packets(SimQueue<ReceivedPacket>& queue,
                                std::vector<ReceivedPacket>& scratch) {
  // Batch drain: one queue swap per tick instead of one pop per packet. The
  // outer loop catches packets enqueued while this batch was processed.
  // Each handled batch is released at once: a packet holds a reference to
  // the frame it arrived in, so a kept slot would keep the frame alive. The
  // shared queue drains in global context (see shared_receive_queue_);
  // handle_packet's scratch members are safe in both because windows and
  // the global phase never overlap in time.
  while (!queue.empty()) {
    std::size_t n = queue.drain_into(scratch);
    for (std::size_t i = 0; i < n; ++i) {
      const ReceivedPacket& pkt = scratch[i];
      handle_packet(pkt.tech, pkt.from, pkt.packed);
    }
    scratch.clear();
  }
}

void OmniManager::handle_packet(Technology tech, const LowLevelAddress& from,
                                BytesView packed) {
  BytesView wire = packed;
  if (BeaconCipher::looks_sealed(wire)) {
    // Encrypted beacon (paper §3.4): without the out-of-band key the packet
    // is opaque — the device effectively does not exist to us. Decrypt into
    // the reused unseal buffer (handle_packet never runs re-entrantly), so
    // sealed receive allocates nothing in steady state.
    if (!cipher_ || !cipher_->open_into(wire, unseal_scratch_)) {
      ++stats_.sealed_drops;
      return;
    }
    wire = unseal_scratch_;
  }
  auto decoded = PackedStruct::decode(wire);
  if (!decoded.is_ok()) {
    OMNI_WARN(sim_.now(), kTag, "dropping undecodable packet on %s: %s",
              to_string(tech).c_str(), decoded.error_message().c_str());
    return;
  }
  const PackedView& p = decoded.value();
  if (p.source == self_) return;  // our own broadcast echoed back
  ++stats_.packets_received;

  if (p.kind == PacketKind::kRelayed) {
    // The link-level sender is the relayer, not `source`: no direct
    // mapping may be recorded.
    handle_relayed_packet(p);
    return;
  }

  TimePoint now = sim_.now();
  // Direct mapping: the packet physically arrived from this address on this
  // technology. Multicast-derived mappings need re-validation before data
  // transfer; ND-integrated (BLE) and connection-proven (unicast) ones do
  // not. For an address beacon the direct mapping joins the batched
  // observe_all below — one table probe for the whole sighting. Deferring
  // it past the engagement trigger is safe: the trigger consults only
  // strictly lower-energy mappings, which a same-technology observation
  // never adds.
  bool refresh_needed = tech == Technology::kWifiMulticast;
  if (p.kind != PacketKind::kAddressBeacon) {
    peers_.observe(p.source, tech, from, now, refresh_needed);
  }

  // Engagement trigger: an unknown peer (no lower-energy reachability)
  // appeared on a non-engaged context technology. BLE is the lowest energy
  // rank, so for BLE packets the reachability probe is statically false.
  if (options_.enable_engagement &&
      (tech == Technology::kBle ||
       !peers_.reachable_on_lower_energy(p.source, tech, now,
                                         options_.peer_ttl))) {
    TechSlot* s = slot(tech);
    if (s != nullptr && s->up && s->supports_context &&
        !s->tech->engaged()) {
      engage(tech);
    }
  }

  // Multi-hop context sharing: eligible packets are re-broadcast with a
  // decremented hop budget.
  if (options_.context_relay_hops > 0 &&
      (p.kind == PacketKind::kContext ||
       p.kind == PacketKind::kAddressBeacon)) {
    maybe_relay(p.source,
                static_cast<std::uint8_t>(options_.context_relay_hops - 1),
                wire);
  }

  switch (p.kind) {
    case PacketKind::kAddressBeacon: {
      ++stats_.beacons_received;
      if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
        sc->mark_frame_on(options_.owner, sc->core().beacon_rx,
                          obs::Cat::kBeaconRx, p.source.value);
      }
      // The beacon carries the peer's full address map: record the direct
      // mapping plus reachability for every technology it names, in one
      // batched table probe. Mappings delivered over integrated low-level
      // ND (BLE) are immediately usable; those delivered over
      // application-level multicast still need the re-validation ritual.
      // The BLE self-mapping duplicate — a beacon heard over BLE from the
      // very address it advertises — is covered by the direct sighting.
      std::array<Sighting, 4> sightings;
      std::size_t n = 0;
      sightings[n++] = Sighting{tech, from, refresh_needed};
      if (!p.beacon.ble.is_zero() &&
          !(tech == Technology::kBle &&
            std::holds_alternative<BleAddress>(from) &&
            std::get<BleAddress>(from) == p.beacon.ble)) {
        sightings[n++] = Sighting{Technology::kBle,
                                  LowLevelAddress{p.beacon.ble},
                                  /*requires_refresh=*/false};
      }
      if (!p.beacon.mesh.is_zero()) {
        sightings[n++] = Sighting{Technology::kWifiUnicast,
                                  LowLevelAddress{p.beacon.mesh},
                                  refresh_needed};
        sightings[n++] = Sighting{Technology::kWifiMulticast,
                                  LowLevelAddress{p.beacon.mesh},
                                  refresh_needed};
      }
      peers_.observe_all(p.source, std::span(sightings.data(), n), now);
      break;
    }
    case PacketKind::kContext:
      deliver_context(p);
      break;
    case PacketKind::kData:
      ++stats_.data_received;
      if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
        sc->mark_on(options_.owner, sc->core().data_rx,
                    obs::Cat::kDataRx, p.source.value, p.payload.size());
      }
      // The callbacks view the sender's encoded buffer itself.
      for (const auto& cb : on_data_) cb(p.source, p.payload);
      break;
    case PacketKind::kRelayed:
      break;  // handled above
  }
  discovery_note_inserts();
}

void OmniManager::deliver_context(const PackedView& p) {
  ++stats_.context_received;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->mark_frame_on(options_.owner, sc->core().context_rx,
                      obs::Cat::kContextRx, p.source.value, p.payload.size());
  }
  context_scratch_.assign(p.payload.begin(), p.payload.end());
  for (const auto& cb : on_context_) cb(p.source, context_scratch_);
}

void OmniManager::handle_relayed_packet(const PackedView& outer) {
  ++stats_.relayed_in;
  auto decoded = PackedStruct::decode(outer.payload);
  if (!decoded.is_ok()) return;
  const PackedView& p = decoded.value();
  if (p.source == self_ || p.source != outer.source) return;

  TimePoint now = sim_.now();
  switch (p.kind) {
    case PacketKind::kAddressBeacon:
      // Multi-hop knowledge: the origin's mesh address may well be usable
      // (WiFi range exceeds BLE range), but it is unverified, so it
      // requires the re-validation ritual before data transfer. The BLE
      // mapping is NOT recorded: two BLE hops away is out of range by
      // construction.
      if (!p.beacon.mesh.is_zero()) {
        peers_.observe(p.source, Technology::kWifiUnicast,
                       LowLevelAddress{p.beacon.mesh}, now, true);
        peers_.observe(p.source, Technology::kWifiMulticast,
                       LowLevelAddress{p.beacon.mesh}, now, true);
      }
      break;
    case PacketKind::kContext:
      deliver_context(p);
      break;
    default:
      return;
  }

  discovery_note_inserts();
  // Forward further if the hop budget allows.
  if (outer.hops_remaining > 0 && options_.context_relay_hops > 0) {
    maybe_relay(p.source,
                static_cast<std::uint8_t>(outer.hops_remaining - 1),
                outer.payload);
  }
}

void OmniManager::maybe_relay(OmniAddress source, std::uint8_t hops,
                              BytesView inner_encoded) {
  // Content-addressed dedup: one active relay per distinct packet.
  std::uint64_t key = fnv1a64(inner_encoded);
  if (active_relays_.count(key) > 0) return;

  SharedBytes packed = maybe_seal(
      PackedStruct::relayed(source,
                            Bytes(inner_encoded.begin(), inner_encoded.end()),
                            hops)
          .encode());
  auto tech = pick_context_tech(packed->size(), {});
  if (!tech) return;  // nothing can carry it (e.g. legacy BLE)

  ContextId rid = next_relay_id_++;
  if (next_relay_id_ >= kBeaconContextBase) next_relay_id_ = kRelayContextBase;
  active_relays_[key] = rid;
  ++stats_.relayed_out;

  SendRequest req;
  req.request_id = next_request_id();
  req.op = SendOp::kAddContext;
  req.context_id = rid;
  req.interval = current_beacon_interval_;
  req.packed = std::move(packed);
  slot(*tech)->send_queue->push(std::move(req));

  // Expire the relay after its lifetime.
  Technology carrier = *tech;
  sim_.after(options_.relay_lifetime, [this, key, rid, carrier] {
    active_relays_.erase(key);
    TechSlot* s = slot(carrier);
    if (s == nullptr || !s->up) return;
    SendRequest remove_req;
    remove_req.request_id = next_request_id();
    remove_req.op = SendOp::kRemoveContext;
    remove_req.context_id = rid;
    s->send_queue->push(std::move(remove_req));
  });
}

// --- Response path -----------------------------------------------------------

void OmniManager::drain_response_queue() {
  // Batch drain; see drain_packets for rationale.
  while (!response_queue_.empty()) {
    std::size_t n = response_queue_.drain_into(response_scratch_);
    for (std::size_t i = 0; i < n; ++i) {
      handle_response(std::move(response_scratch_[i]));
    }
    // Unlike received packets, responses carry callbacks and shared send
    // state: destroy them promptly instead of recycling the slots.
    response_scratch_.clear();
  }
}

void OmniManager::handle_response(TechResponse response) {
  if (response.kind == TechResponse::Kind::kAddressChange) {
    // The technology's low-level address rotated (e.g. BLE privacy). The
    // address beacon must advertise the fresh mapping immediately, or peers
    // would keep contacting a stale address.
    TechSlot* s = slot(response.tech);
    if (s == nullptr) return;
    s->address = response.new_address;
    if (std::holds_alternative<BleAddress>(response.new_address)) {
      beacon_info_.ble = std::get<BleAddress>(response.new_address);
    } else if (std::holds_alternative<MeshAddress>(response.new_address)) {
      beacon_info_.mesh = std::get<MeshAddress>(response.new_address);
    }
    ++beacon_gen_;  // beacon_wire() re-encodes against the fresh mapping
    readvertise_beacon(current_beacon_interval_);
    return;
  }

  if (response.kind == TechResponse::Kind::kTechStatus) {
    TechSlot* s = slot(response.tech);
    if (s == nullptr) return;
    bool was_up = s->up;
    s->up = response.up;
    if (was_up != response.up) note_status_flap(*s);
    if (!was_up && response.up) {
      // Technology recovered: if it should carry beacons (primary, or
      // engagement disabled), restart them — unless the flap circuit
      // breaker benched it; then the quarantine-end re-probe takes over.
      if (quarantined(*s)) return;
      Technology primary = primary_context_tech();
      if (s->tech->supports_context() &&
          (!options_.enable_engagement || s->tech->type() == primary)) {
        s->tech->set_engaged(true);
        start_beaconing_on(s->tech->type());
      }
      return;
    }
    if (was_up && !response.up) {
      s->beaconing = false;
      // Re-home application contexts that were riding the lost technology.
      for (ContextId id : contexts_.on_tech(response.tech)) {
        ContextRecord* rec = contexts_.find(id);
        if (rec == nullptr) continue;
        rec->tech.reset();
        rec->active = false;
        rec->tried.clear();
        rec->tried.insert(response.tech);
        ++stats_.context_failovers;
        dispatch_context_add(*rec);
      }
      // If the primary beacon carrier died, promote the next one.
      Technology primary = primary_context_tech();
      if (TechSlot* p = slot(primary); p != nullptr && p->up) {
        if (!p->tech->engaged()) engage(primary);
      }
    }
    return;
  }

  if (response.op == SendOp::kSendData) {
    handle_data_response(response);
  } else {
    handle_context_response(response);
  }
}

void OmniManager::handle_data_response(const TechResponse& response) {
  auto it = data_attempts_.find(response.request_id);
  if (it == data_attempts_.end()) return;
  std::uint64_t op_id = it->second.op_id;
  it->second.deadline.cancel();
  data_attempts_.erase(it);

  auto op_it = pending_data_.find(op_id);
  if (op_it == pending_data_.end()) return;
  PendingData& op = op_it->second;

  if (response.success) {
    peers_.mark_fresh(op.dest, response.tech);
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->count_on(options_.owner, sc->core().data_ok);
      sc->observe_on(options_.owner, sc->core().data_latency_ms,
                     (sim_.now() - op.started).as_seconds() * 1e3);
      sc->async_end_on(options_.owner, obs::Cat::kOpData, op_id, 0,
                       static_cast<std::uint8_t>(response.tech));
    }
    StatusCallback cb = op.callback;
    ResponseInfo info;
    info.destination = op.dest;
    pending_data_.erase(op_it);
    if (cb) cb(StatusCode::kSendDataSuccess, info);
    return;
  }

  // Failure: retry on the next applicable technology; only when all are
  // exhausted does the application hear about it (paper §3.1, §3.3).
  OMNI_DEBUG(sim_.now(), kTag, "data to %s failed on %s: %s",
             op.dest.to_string().c_str(), to_string(response.tech).c_str(),
             response.failure_reason.c_str());
  ++stats_.data_failovers;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->count_on(options_.owner, sc->core().data_failovers);
    sc->instant_on(options_.owner, obs::Cat::kFailover, op_id, 0,
                   static_cast<std::uint8_t>(response.tech));
  }
  dispatch_data(op_id);
}

void OmniManager::handle_context_response(const TechResponse& response) {
  if (is_beacon_context(response.context_id)) {
    TechSlot* s = slot(response.tech);
    if (response.success) {
      // A beacon op landed: the carrier is healthy again.
      if (s != nullptr && response.op == SendOp::kAddContext) {
        s->beacon_failures = 0;
      }
      return;
    }
    OMNI_WARN(sim_.now(), kTag, "address beacon op failed on %s: %s",
              to_string(response.tech).c_str(),
              response.failure_reason.c_str());
    if (s != nullptr) {
      s->beaconing = false;
      // Self-heal: re-arm the address beacon after a backoff instead of
      // silently going dark until a tech status transition (which may
      // never come for a transient send failure).
      if (response.op != SendOp::kRemoveContext) {
        ++s->beacon_failures;
        schedule_beacon_rearm(*s);
      }
    }
    return;
  }

  auto it = context_attempts_.find(response.request_id);
  if (it == context_attempts_.end()) return;
  ContextId id = it->second.id;
  it->second.deadline.cancel();
  context_attempts_.erase(it);

  ContextRecord* rec = contexts_.find(id);
  ResponseInfo info;
  info.context_id = id;

  switch (response.op) {
    case SendOp::kAddContext: {
      if (rec == nullptr) return;  // removed while in flight
      if (response.success) {
        rec->active = true;
        rec->tried.clear();
        if (rec->callback) {
          rec->callback(StatusCode::kAddContextSuccess, info);
        }
        return;
      }
      ++stats_.context_failovers;
      rec->tech.reset();
      rec->active = false;
      dispatch_context_add(*rec);
      return;
    }
    case SendOp::kUpdateContext: {
      if (rec == nullptr) return;
      if (response.success) {
        if (rec->callback) {
          rec->callback(StatusCode::kUpdateContextSuccess, info);
        }
        return;
      }
      // Re-home the context: remove locally, re-add elsewhere.
      ++stats_.context_failovers;
      rec->tech.reset();
      rec->active = false;
      rec->tried.clear();
      rec->tried.insert(response.tech);
      dispatch_context_add(*rec);
      return;
    }
    case SendOp::kRemoveContext: {
      info.failure_description = response.failure_reason;
      StatusCallback cb = rec != nullptr ? rec->callback : response.callback;
      contexts_.remove(id);
      if (cb) {
        cb(response.success ? StatusCode::kRemoveContextSuccess
                            : StatusCode::kRemoveContextFailure,
           info);
      }
      return;
    }
    case SendOp::kSendData:
      return;  // unreachable; handled elsewhere
  }
}

// --- Context operations -------------------------------------------------------

SharedBytes OmniManager::packed_context(const ContextRecord& record) {
  return maybe_seal(PackedStruct::context(self_, record.content).encode());
}

std::optional<Technology> OmniManager::pick_context_tech(
    std::size_t packed_size, const std::set<Technology>& exclude) const {
  // Lowest-energy first (the Technology enum is ordered by energy cost),
  // requiring the payload to fit.
  std::optional<Technology> best;
  for (const auto& s : slots_) {
    if (!usable(s) || !s.tech->supports_context()) continue;
    Technology t = s.tech->type();
    if (exclude.count(t) > 0) continue;
    if (s.tech->max_context_payload() < packed_size) continue;
    if (!best || static_cast<int>(t) < static_cast<int>(*best)) best = t;
  }
  return best;
}

void OmniManager::dispatch_context_add(ContextRecord& record) {
  SharedBytes packed = packed_context(record);
  auto tech = pick_context_tech(packed->size(), record.tried);
  if (!tech) {
    ResponseInfo info;
    info.context_id = record.id;
    info.failure_description =
        "no applicable context technology (payload too large or all failed)";
    StatusCallback cb = record.callback;
    contexts_.remove(record.id);
    if (cb) cb(StatusCode::kAddContextFailure, info);
    return;
  }
  record.tech = *tech;
  record.tried.insert(*tech);

  SendRequest req;
  req.request_id = next_request_id();
  req.op = SendOp::kAddContext;
  req.context_id = record.id;
  req.interval = scaled_context_interval(record.params.interval);
  req.packed = std::move(packed);
  req.callback = record.callback;
  ContextAttempt attempt;
  attempt.id = record.id;
  attempt.tech = *tech;
  attempt.op = SendOp::kAddContext;
  attempt.deadline =
      arm_deadline(req.request_id, options_.self_healing.min_op_deadline);
  context_attempts_[req.request_id] = std::move(attempt);
  slot(*tech)->send_queue->push(std::move(req));
}

void OmniManager::add_context(const ContextParams& params, Bytes context,
                              StatusCallback callback) {
  if (!running_) {
    sim_.after(Duration::zero(), [callback] {
      ResponseInfo info;
      info.failure_description = "manager not running";
      if (callback) callback(StatusCode::kAddContextFailure, info);
    });
    return;
  }
  if (params.interval <= Duration::zero()) {
    sim_.after(Duration::zero(), [callback] {
      ResponseInfo info;
      info.failure_description = "context interval must be positive";
      if (callback) callback(StatusCode::kAddContextFailure, info);
    });
    return;
  }
  ContextId id = contexts_.add(params, std::move(context), callback);
  dispatch_context_add(*contexts_.find(id));
}

void OmniManager::update_context(ContextId id, const ContextParams& params,
                                 Bytes context, StatusCallback callback) {
  if (!running_) {
    sim_.after(Duration::zero(), [callback, id] {
      ResponseInfo info;
      info.context_id = id;
      info.failure_description = "manager not running";
      if (callback) callback(StatusCode::kUpdateContextFailure, info);
    });
    return;
  }
  ContextRecord* rec = contexts_.find(id);
  if (rec == nullptr || is_beacon_context(id)) {
    sim_.after(Duration::zero(), [callback, id] {
      ResponseInfo info;
      info.context_id = id;
      info.failure_description = "unknown context id";
      if (callback) callback(StatusCode::kUpdateContextFailure, info);
    });
    return;
  }
  rec->params = params;
  rec->content = std::move(context);
  if (callback) rec->callback = std::move(callback);
  // In-place content rewrite: the registry cannot see it, so bump the
  // generation by hand (cached wire frames key on it; see beacon_wire()).
  contexts_.bump_generation();

  SharedBytes packed = packed_context(*rec);
  if (!rec->tech || !rec->active) {
    // Not currently placed: (re)dispatch as an add.
    rec->tried.clear();
    dispatch_context_add(*rec);
    return;
  }
  TechSlot* s = slot(*rec->tech);
  if (s == nullptr || !s->up ||
      s->tech->max_context_payload() < packed->size()) {
    // Needs re-homing (e.g., payload grew beyond the carrier's limit).
    if (s != nullptr && s->up) {
      SendRequest remove_req;
      remove_req.request_id = next_request_id();
      remove_req.op = SendOp::kRemoveContext;
      remove_req.context_id = id;
      s->send_queue->push(std::move(remove_req));
    }
    rec->tech.reset();
    rec->active = false;
    rec->tried.clear();
    dispatch_context_add(*rec);
    return;
  }

  SendRequest req;
  req.request_id = next_request_id();
  req.op = SendOp::kUpdateContext;
  req.context_id = id;
  req.interval = scaled_context_interval(rec->params.interval);
  req.packed = std::move(packed);
  req.callback = rec->callback;
  ContextAttempt attempt;
  attempt.id = id;
  attempt.tech = *rec->tech;
  attempt.op = SendOp::kUpdateContext;
  attempt.deadline =
      arm_deadline(req.request_id, options_.self_healing.min_op_deadline);
  context_attempts_[req.request_id] = std::move(attempt);
  s->send_queue->push(std::move(req));
}

void OmniManager::remove_context(ContextId id, StatusCallback callback) {
  if (!running_) {
    // Shutdown path: transmissions are already withdrawn with the
    // technologies; just forget the record.
    contexts_.remove(id);
    sim_.after(Duration::zero(), [callback, id] {
      ResponseInfo info;
      info.context_id = id;
      if (callback) callback(StatusCode::kRemoveContextSuccess, info);
    });
    return;
  }
  ContextRecord* rec = contexts_.find(id);
  if (rec == nullptr || is_beacon_context(id)) {
    sim_.after(Duration::zero(), [callback, id] {
      ResponseInfo info;
      info.context_id = id;
      info.failure_description = "unknown context id";
      if (callback) callback(StatusCode::kRemoveContextFailure, info);
    });
    return;
  }
  if (callback) rec->callback = std::move(callback);
  if (!rec->tech || !rec->active) {
    StatusCallback cb = rec->callback;
    contexts_.remove(id);
    sim_.after(Duration::zero(), [cb, id] {
      ResponseInfo info;
      info.context_id = id;
      if (cb) cb(StatusCode::kRemoveContextSuccess, info);
    });
    return;
  }
  SendRequest req;
  req.request_id = next_request_id();
  req.op = SendOp::kRemoveContext;
  req.context_id = id;
  req.callback = rec->callback;
  ContextAttempt attempt;
  attempt.id = id;
  attempt.tech = *rec->tech;
  attempt.op = SendOp::kRemoveContext;
  attempt.deadline =
      arm_deadline(req.request_id, options_.self_healing.min_op_deadline);
  context_attempts_[req.request_id] = std::move(attempt);
  slot(*rec->tech)->send_queue->push(std::move(req));
}

// --- Data operations ----------------------------------------------------------

std::optional<Technology> OmniManager::pick_data_tech(
    const PendingData& op) const {
  const PeerEntry* peer = peers_.find(op.dest);
  if (peer == nullptr) return std::nullopt;

  std::optional<Technology> best;
  Duration best_time = Duration::max();
  int best_rank = 0;
  for (const auto& s : slots_) {
    if (!usable(s) || !s.tech->supports_data()) continue;
    Technology t = s.tech->type();
    if (op.tried.count(t) > 0) continue;
    auto info_it = peer->techs.find(t);
    if (info_it == peer->techs.end()) continue;
    std::size_t cap = s.tech->max_data_payload();
    if (cap != 0 && op.packed->size() > cap) continue;

    switch (options_.data_policy) {
      case ManagerOptions::DataPolicy::kExpectedTime: {
        Duration est = s.tech->estimate_data_time(
            op.packed->size(), info_it->second.requires_refresh);
        if (!best || est < best_time) {
          best = t;
          best_time = est;
        }
        break;
      }
      case ManagerOptions::DataPolicy::kPreferLowEnergy:
        if (!best || static_cast<int>(t) < best_rank) {
          best = t;
          best_rank = static_cast<int>(t);
        }
        break;
      case ManagerOptions::DataPolicy::kPreferThroughput:
        if (!best || static_cast<int>(t) > best_rank) {
          best = t;
          best_rank = static_cast<int>(t);
        }
        break;
    }
  }
  return best;
}

void OmniManager::dispatch_data(std::uint64_t op_id) {
  auto it = pending_data_.find(op_id);
  if (it == pending_data_.end()) return;
  PendingData& op = it->second;

  auto tech = pick_data_tech(op);
  if (!tech) {
    fail_data(op_id, "all applicable technologies exhausted");
    return;
  }
  op.tried.insert(*tech);
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->instant_on(options_.owner, obs::Cat::kTechSelect, op_id, 0,
                   static_cast<std::uint8_t>(*tech));
  }

  const PeerEntry* peer = peers_.find(op.dest);
  const PeerTechInfo& info = peer->techs.at(*tech);

  SendRequest req;
  req.request_id = next_request_id();
  req.op = SendOp::kSendData;
  req.packed = op.packed;
  req.dest = info.address;
  req.dest_omni = op.dest;
  req.needs_refresh = info.requires_refresh;
  if (req.needs_refresh) {
    // If the peer was heard recently on an ND-integrated technology (BLE),
    // only the network needs re-validating; otherwise the peer's next
    // periodic advertisement must be awaited as well.
    auto ble_it = peer->techs.find(Technology::kBle);
    bool heard_on_ble =
        ble_it != peer->techs.end() &&
        sim_.now() - ble_it->second.last_seen <= options_.peer_ttl;
    req.refresh_advert_wait = !heard_on_ble;
  }
  req.callback = op.callback;
  DataAttempt attempt;
  attempt.op_id = op_id;
  attempt.tech = *tech;
  // Budget scaled to the expected transfer time (connection setup plus
  // size/throughput), floored so tiny transfers get a sane minimum.
  const auto& sh = options_.self_healing;
  Duration est = slot(*tech)->tech->estimate_data_time(op.packed->size(),
                                                       info.requires_refresh);
  Duration budget =
      std::max(sh.min_op_deadline, est * sh.deadline_factor + sh.deadline_slack);
  attempt.deadline = arm_deadline(req.request_id, budget);
  data_attempts_[req.request_id] = std::move(attempt);
  slot(*tech)->send_queue->push(std::move(req));
}

void OmniManager::fail_data(std::uint64_t op_id, const std::string& why) {
  auto it = pending_data_.find(op_id);
  if (it == pending_data_.end()) return;
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->count_on(options_.owner, sc->core().data_failed);
    sc->async_end_on(options_.owner, obs::Cat::kOpData, op_id, 1);
  }
  StatusCallback cb = it->second.callback;
  ResponseInfo info;
  info.destination = it->second.dest;
  info.failure_description = why;
  pending_data_.erase(it);
  if (cb) cb(StatusCode::kSendDataFailure, info);
}

void OmniManager::send_data(const std::vector<OmniAddress>& destinations,
                            Bytes data, StatusCallback callback) {
  if (!running_) {
    for (OmniAddress dest : destinations) {
      sim_.after(Duration::zero(), [callback, dest] {
        ResponseInfo info;
        info.destination = dest;
        info.failure_description = "manager not running";
        if (callback) callback(StatusCode::kSendDataFailure, info);
      });
    }
    return;
  }
  // One encode per call: every destination's op and every attempt share it.
  SharedBytes packed = std::make_shared<const Bytes>(
      PackedStruct::data(self_, std::move(data)).encode());
  for (OmniAddress dest : destinations) {
    if (pending_data_.size() >= options_.self_healing.max_pending_ops) {
      // Overload shed: bound the pending table rather than letting a dead
      // network grow it without limit.
      ++stats_.overload_rejections;
      sim_.after(Duration::zero(), [callback, dest] {
        ResponseInfo info;
        info.destination = dest;
        info.failure_description = "manager overloaded: pending data table full";
        if (callback) callback(StatusCode::kSendDataFailure, info);
      });
      continue;
    }
    ++stats_.data_sends;
    std::uint64_t op_id = next_data_op_id_++;
    PendingData op;
    op.op_id = op_id;
    op.dest = dest;
    op.packed = packed;
    op.callback = callback;
    op.started = sim_.now();
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->count_on(options_.owner, sc->core().data_ops);
      sc->async_begin_on(options_.owner, obs::Cat::kOpData, op_id,
                         packed->size());
    }
    pending_data_.emplace(op_id, std::move(op));

    if (peers_.find(dest) == nullptr) {
      // Keep failure reporting asynchronous like every other path.
      sim_.after(Duration::zero(), [this, op_id] {
        fail_data(op_id, "unknown peer (never discovered)");
      });
      continue;
    }
    dispatch_data(op_id);
  }
}

// --- Snapshot capture --------------------------------------------------------

namespace {

/// Canonical LowLevelAddress encoding: variant index, then the alternative's
/// natural layout (nothing | 6 octets | u64 | u64).
void encode_lladdr(sim::ByteWriter& w, const LowLevelAddress& a) {
  w.u8(static_cast<std::uint8_t>(a.index()));
  if (const auto* b = std::get_if<BleAddress>(&a)) {
    for (std::uint8_t octet : b->octets) w.u8(octet);
  } else if (const auto* m = std::get_if<MeshAddress>(&a)) {
    w.u64(m->value);
  } else if (const auto* n = std::get_if<NanAddress>(&a)) {
    w.u64(n->value);
  }
}

/// Canonical peer-table encoding: peers ascending by omni address, each
/// entry's technology mappings in enum order. Independent of bucket layout
/// and insertion history, so two runs that discovered the same neighborhood
/// encode identical bytes.
void encode_peer_table(sim::ByteWriter& w, const PeerTable& peers) {
  const std::vector<OmniAddress> ids = peers.peers();  // sorted
  w.var(ids.size());
  for (OmniAddress p : ids) {
    const PeerEntry* e = peers.find(p);
    w.u64(p.value);
    w.svar(e->last_seen.as_micros());
    w.svar(e->interval_hint.as_micros());
    w.var(e->techs.size());
    for (const auto& [tech, info] : e->techs) {
      w.u8(static_cast<std::uint8_t>(tech));
      encode_lladdr(w, info.address);
      w.svar(info.last_seen.as_micros());
      w.u8(info.requires_refresh ? 1 : 0);
    }
  }
}

}  // namespace

void OmniManager::snapshot_state(sim::ByteWriter& w, bool deep) const {
  w.u64(self_.value);
  w.var(static_cast<std::uint64_t>(options_.owner));
  w.u8(running_ ? 1 : 0);

  // Cache-invalidating generations. The beacon wire frame is not captured;
  // the generations prove two compared runs have (in)validated it the same
  // number of times.
  w.var(beacon_gen_);
  w.var(beacon_wire_gen_);
  w.u64(beacon_wire_ctx_gen_);

  // Monotonic id/draw counters — each one pins a whole derived sequence
  // (request ids, op ids, nonces, relay context ids, jitter draws).
  w.var(next_request_id_);
  w.var(next_data_op_id_);
  w.var(next_nonce_);
  w.var(next_relay_id_ - kRelayContextBase);
  w.var(backoff_draws_);
  w.var(discovery_draws_);
  w.var(discovery_last_inserts_);
  w.svar(current_beacon_interval_.as_micros());
  w.f64(discovery_scan_duty_);

  // ManagerStats in declaration order, except the always-zero
  // beacon_decode_skips.
  for (std::uint64_t v :
       {stats_.packets_received, stats_.sealed_drops, stats_.beacons_received,
        stats_.context_received, stats_.data_received, stats_.data_sends,
        stats_.data_failovers, stats_.context_failovers, stats_.engagements,
        stats_.disengagements, stats_.beacon_encodes,
        stats_.beacon_frames_cached, stats_.peer_expire_sweeps, stats_.relayed_out, stats_.relayed_in,
        stats_.deadline_failovers, stats_.beacon_rearms, stats_.quarantines,
        stats_.overload_rejections, stats_.beacons_suppressed,
        stats_.scan_windows_skipped}) {
    w.var(v);
  }

  // Technology slots in registration order (deterministic: the sequence of
  // add_technology calls). Pending re-arm / quarantine-end timers appear in
  // the events section; here only their armed-ness is recorded.
  w.var(slots_.size());
  for (const TechSlot& s : slots_) {
    w.u8(static_cast<std::uint8_t>(s.type));
    const std::uint8_t flags =
        (s.up ? 1u : 0u) | (s.beaconing ? 2u : 0u) |
        (s.beacon_rearm.pending() ? 4u : 0u) |
        (s.quarantine_end.pending() ? 8u : 0u);
    w.u8(flags);
    encode_lladdr(w, s.address);
    w.svar(s.beacon_failures);
    w.svar(s.flaps);
    w.svar(s.flap_window_start.as_micros());
    w.svar(s.quarantine_count);
    w.svar(s.quarantined_until.as_micros());
  }

  // Pending data ops (std::map: ascending op id). Payload bytes collapse to
  // length + digest — enough to prove equality, cheap at any fan-out.
  w.var(pending_data_.size());
  for (const auto& [id, op] : pending_data_) {
    w.var(id);
    w.u64(op.dest.value);
    w.var(op.packed->size());
    w.u64(fnv1a64(std::span<const std::uint8_t>(*op.packed)));
    w.svar(op.started.as_micros());
    std::uint8_t tried = 0;
    for (Technology t : op.tried) {
      tried |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(t));
    }
    w.u8(tried);
  }

  // In-flight attempts (ascending request id).
  w.var(data_attempts_.size());
  for (const auto& [rid, a] : data_attempts_) {
    w.var(rid);
    w.var(a.op_id);
    w.u8(static_cast<std::uint8_t>(a.tech));
    w.u8(a.deadline.pending() ? 1 : 0);
  }
  w.var(context_attempts_.size());
  for (const auto& [rid, a] : context_attempts_) {
    w.var(rid);
    w.var(a.id);
    w.u8(static_cast<std::uint8_t>(a.tech));
    w.u8(static_cast<std::uint8_t>(a.op));
    w.u8(a.deadline.pending() ? 1 : 0);
  }

  // Context registry: generation plus the sorted id set (record contents are
  // application inputs, replayed identically by construction).
  w.var(contexts_.size());
  w.var(contexts_.generation());
  for (ContextId id : contexts_.ids()) w.var(id);

  // Active relays (std::map: ascending content hash).
  w.var(active_relays_.size());
  for (const auto& [hash, cid] : active_relays_) {
    w.u64(hash);
    w.var(cid - kRelayContextBase);
  }

  // Peer table: canonical encoding, embedded (deep) or digested (size
  // budget). The digest covers the identical bytes, so verification strength
  // is the same either way; only diff granularity differs.
  w.var(peers_.size());
  w.var(peers_.inserts());
  sim::ByteWriter pt;
  encode_peer_table(pt, peers_);
  w.u8(deep ? 1 : 0);
  if (deep) {
    w.str(std::string_view(reinterpret_cast<const char*>(pt.bytes().data()),
                           pt.bytes().size()));
  } else {
    w.u64(fnv1a64(std::span<const std::uint8_t>(pt.bytes())));
  }
}

}  // namespace omni
