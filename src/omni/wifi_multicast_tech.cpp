#include "omni/wifi_multicast_tech.h"

#include "common/logging.h"
#include "net/link_frame.h"
#include "obs/omniscope.h"

namespace omni {

WifiMulticastTech::WifiMulticastTech(radio::WifiRadio& radio,
                                     radio::MeshNetwork& mesh,
                                     Options options)
    : radio_(radio), mesh_(mesh), options_(options) {
  sim::Simulator& sim = radio_.simulator();
  probe_slot_ =
      sim.register_callback_slot(this, &WifiMulticastTech::probe_thunk);
  engage_sync_slot_ =
      sim.register_callback_slot(this, &WifiMulticastTech::engage_sync_thunk);
}

WifiMulticastTech::~WifiMulticastTech() {
  probe_event_.cancel();
  maintenance_event_.cancel();
  tick_event_.cancel();
  sim::Simulator& sim = radio_.simulator();
  sim.unregister_callback_slot(engage_sync_slot_);
  sim.unregister_callback_slot(probe_slot_);
}

EnableResult WifiMulticastTech::enable(const TechQueues& queues) {
  OMNI_CHECK_MSG(!enabled_, "WifiMulticastTech already enabled");
  OMNI_CHECK(queues.send != nullptr && queues.receive != nullptr &&
             queues.response != nullptr);
  queues_ = queues;
  enabled_ = true;
  radio_.set_powered(true);
  radio_.add_datagram_handler(
      [this](const MeshAddress& from, const SharedBytes& payload,
             bool multicast) {
        if (!multicast || !enabled_) return;
        on_multicast(from, payload);
      });
  radio_.add_power_handler([this](bool powered) {
    if (!enabled_) return;
    if (!powered) {
      joined_ = false;
      tick_event_.cancel();
      contexts_.clear();
      update_periodic_load();
      queues_.response->push(
          TechResponse::status_change(Technology::kWifiMulticast, false));
    } else {
      radio_.join(mesh_, [this](Status s) {
        joined_ = s.is_ok();
        queues_.response->push(TechResponse::status_change(
            Technology::kWifiMulticast, joined_));
      });
    }
  });
  if (radio_.mesh() == &mesh_) {
    joined_ = true;
  } else {
    radio_.join(mesh_, [this](Status s) {
      joined_ = s.is_ok();
      if (!joined_) {
        queues_.response->push(
            TechResponse::status_change(Technology::kWifiMulticast, false));
      }
      std::deque<SendRequest> waiting;
      waiting.swap(waiting_for_join_);
      for (auto& req : waiting) process(std::move(req));
    });
  }
  queues_.send->set_consumer([this] { drain_send_queue(); });
  if (!engaged_) schedule_probe();
  // First rescan at half period, de-phasing it from other periodic work.
  schedule_maintenance_scan(options_.maintenance_scan_period / 2);
  return EnableResult{Technology::kWifiMulticast,
                      LowLevelAddress{radio_.address()}};
}

void WifiMulticastTech::disable() {
  if (!enabled_) return;
  drain_send_queue();
  queues_.send->clear_consumer();
  for (auto& req : waiting_for_join_) respond(req, false, "disabled");
  waiting_for_join_.clear();
  contexts_.clear();
  update_periodic_load();
  tick_event_.cancel();
  probe_event_.cancel();
  maintenance_event_.cancel();
  enabled_ = false;
}

std::size_t WifiMulticastTech::max_context_payload() const {
  return radio_.calibration().wifi_multicast_mtu -
         kBleBroadcastFrameOverhead;
}

Duration WifiMulticastTech::estimate_data_time(std::size_t bytes,
                                               bool needs_refresh) const {
  const auto& cal = radio_.calibration();
  double frag_air = static_cast<double>(cal.wifi_multicast_mtu) * 8.0 /
                    cal.wifi_multicast_base_rate_bps;
  double frag_occ = frag_air + cal.wifi_multicast_overhead.as_seconds();
  double fragments =
      std::max<double>(1.0, static_cast<double>(bytes) /
                                static_cast<double>(cal.wifi_multicast_mtu));
  Duration t = Duration::seconds(fragments * frag_occ);
  if (needs_refresh) {
    t += cal.wifi_scan_duration + cal.wifi_join_duration +
         cal.wifi_resolve_query + cal.wifi_advert_wait;
  }
  return t;
}

void WifiMulticastTech::set_engaged(bool engaged) {
  if (engaged_ == engaged) return;
  engaged_ = engaged;
  if (!enabled_) return;
  // The probe event lives in the barrier-serialized global queue, but the
  // manager may call set_engaged from its node-shard context. The flag flip
  // above is safe (phase-serialized); the probe bookkeeping is deferred to
  // the next barrier and re-checks the flags there. The defer is an
  // engage-sync descriptor — a shippable cross-owner post, unlike the
  // `this`-capturing closure it replaced.
  radio_.simulator().schedule_slot_on(sim::kGlobalOwner, Duration::zero(),
                                      sim::kEventEngageSync,
                                      engage_sync_slot_);
}

void WifiMulticastTech::engage_sync_thunk(void* ctx) {
  static_cast<WifiMulticastTech*>(ctx)->engage_sync_fired();
}

void WifiMulticastTech::engage_sync_fired() {
  if (!enabled_) return;
  if (engaged_) {
    probe_event_.cancel();
  } else if (!probe_event_.pending()) {
    schedule_probe();
  }
}

void WifiMulticastTech::schedule_probe() {
  probe_event_ = radio_.simulator().schedule_slot_on(
      sim::kGlobalOwner, options_.probe_interval, sim::kEventDiscoveryTick,
      probe_slot_);
}

void WifiMulticastTech::probe_thunk(void* ctx) {
  static_cast<WifiMulticastTech*>(ctx)->probe_fired();
}

void WifiMulticastTech::probe_fired() {
  if (!enabled_ || engaged_) return;
  const auto& cal = radio_.calibration();
  // Open a listen window spanning one beacon interval. The radio is in
  // standby either way (frames reach a joined member for free); the probe
  // pays only a short processing burst.
  probe_window_until_ = radio_.simulator().now() + options_.probe_window;
  radio_.meter().charge_for(cal.wifi_probe_listen_burst, cal.wifi_receive_ma);
  schedule_probe();
}

void WifiMulticastTech::schedule_maintenance_scan(Duration delay) {
  if (options_.maintenance_scan_period <= Duration::zero()) return;
  maintenance_event_ = radio_.simulator().after(delay, [this] {
    if (!enabled_) return;
    // Track the changing environment (footnote 12); membership is kept.
    radio_.scan([](std::vector<radio::MeshNetwork*>) {});
    schedule_maintenance_scan(options_.maintenance_scan_period);
  });
}

void WifiMulticastTech::on_multicast(const MeshAddress& from,
                                     const SharedBytes& frame) {
  if (!engaged_ && radio_.simulator().now() > probe_window_until_) {
    return;  // disengaged and outside a probe window: not listening
  }
  if (!frame->empty() && frame->front() == kFrameAggregate) {
    for (BytesView packed : unframe_aggregate(*frame)) {
      queues_.receive->push(ReceivedPacket{
          Technology::kWifiMulticast, LowLevelAddress{from}, frame, packed});
    }
    return;
  }
  auto packed = unframe_mesh_view(*frame, radio_.address());
  if (!packed) return;
  queues_.receive->push(ReceivedPacket{
      Technology::kWifiMulticast, LowLevelAddress{from}, frame, *packed});
}

void WifiMulticastTech::drain_send_queue() {
  while (auto request = queues_.send->try_pop()) {
    process(std::move(*request));
  }
}

void WifiMulticastTech::process(SendRequest request) {
  if (!joined_) {
    if (radio_.management_busy() || radio_.mesh() == nullptr) {
      waiting_for_join_.push_back(std::move(request));
      return;
    }
    respond(request, false, "not joined to the mesh");
    return;
  }
  switch (request.op) {
    case SendOp::kAddContext: {
      if (contexts_.count(request.context_id) > 0) {
        respond(request, false, "context id already active on multicast");
        return;
      }
      ContextEntry entry;
      entry.packed = request.packed;
      entry.interval = request.interval;
      entry.last_sent = radio_.simulator().now();
      contexts_.emplace(request.context_id, std::move(entry));
      update_periodic_load();
      reschedule_tick();
      respond(request, true);
      return;
    }
    case SendOp::kUpdateContext: {
      auto it = contexts_.find(request.context_id);
      if (it == contexts_.end()) {
        respond(request, false, "no such context on multicast");
        return;
      }
      it->second.packed = request.packed;
      if (it->second.interval != request.interval) {
        it->second.interval = request.interval;
        update_periodic_load();
        reschedule_tick();
      }
      respond(request, true);
      return;
    }
    case SendOp::kRemoveContext: {
      auto it = contexts_.find(request.context_id);
      if (it == contexts_.end()) {
        respond(request, false, "no such context on multicast");
        return;
      }
      contexts_.erase(it);
      update_periodic_load();
      reschedule_tick();
      respond(request, true);
      return;
    }
    case SendOp::kSendData: {
      if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
        sc->count_on(radio_.node(), sc->core().tech_send[2]);
        sc->instant_on(radio_.node(), obs::Cat::kTechSend,
                       request.request_id, request.packed->size(), 2);
      }
      auto req = std::make_shared<SendRequest>(std::move(request));
      if (req->needs_refresh) {
        net::run_discovery_ritual(
            radio_, mesh_, net::RitualOptions{req->refresh_advert_wait},
            [this, req](Status s) {
              if (!s.is_ok()) {
                respond(*req, false,
                        "discovery ritual failed: " + s.message());
                return;
              }
              do_send_data(req);
            });
        return;
      }
      do_send_data(std::move(req));
      return;
    }
  }
}

void WifiMulticastTech::update_periodic_load() {
  if (aggregate_load_ != 0) {
    mesh_.unregister_periodic_multicast(aggregate_load_);
    aggregate_load_ = 0;
  }
  if (contexts_.empty()) return;
  Duration base = Duration::max();
  for (const auto& [id, e] : contexts_) base = std::min(base, e.interval);
  aggregate_load_ = mesh_.register_periodic_multicast(base);
}

void WifiMulticastTech::reschedule_tick() {
  tick_event_.cancel();
  if (contexts_.empty() || !enabled_) return;
  TimePoint next = TimePoint::max();
  for (const auto& [id, e] : contexts_) {
    next = std::min(next, e.last_sent + e.interval);
  }
  tick_event_ = radio_.simulator().at(next, [this] { fire_tick(); });
}

void WifiMulticastTech::fire_tick() {
  if (!enabled_) return;
  TimePoint now = radio_.simulator().now();
  // Everything due on this tick is coalesced into one aggregate datagram —
  // one driver wakeup, one channel occupancy.
  std::vector<Bytes> due;
  for (auto& [id, e] : contexts_) {
    if (now - e.last_sent >= e.interval - Duration::micros(1)) {
      due.push_back(*e.packed);
      e.last_sent = now;
    }
  }
  if (!due.empty() && joined_) {
    mesh_.multicast_datagram(radio_, frame_aggregate(due));
  }
  reschedule_tick();
}

void WifiMulticastTech::do_send_data(std::shared_ptr<SendRequest> request) {
  Bytes frame;
  if (std::holds_alternative<MeshAddress>(request->dest)) {
    frame = frame_unicast_mesh(std::get<MeshAddress>(request->dest),
                               *request->packed);
  } else {
    frame = frame_broadcast(*request->packed);
  }
  std::uint64_t bytes = request->packed->size();
  Status s = mesh_.multicast_bulk(
      radio_, bytes, std::move(frame),
      [this, request](std::vector<radio::WifiRadio*> receivers) {
        // Multicast is unacknowledged; reaching at least one receiver is the
        // best success signal the technology has.
        if (receivers.empty()) {
          respond(*request, false, "no multicast receivers in range");
        } else {
          respond(*request, true);
        }
      });
  if (!s.is_ok()) respond(*request, false, s.message());
}

void WifiMulticastTech::respond(const SendRequest& request, bool success,
                                std::string failure) {
  if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
    sc->instant_on(radio_.node(), obs::Cat::kTechResponse,
                   request.request_id, success ? 0 : 1, 2);
  }
  queues_.response->push(TechResponse::result(Technology::kWifiMulticast,
                                              request, success,
                                              std::move(failure)));
}

}  // namespace omni
