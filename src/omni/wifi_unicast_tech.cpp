#include "omni/wifi_unicast_tech.h"

#include "common/logging.h"
#include "obs/omniscope.h"

namespace omni {

WifiUnicastTech::WifiUnicastTech(radio::WifiRadio& radio,
                                 radio::MeshNetwork& mesh)
    : radio_(radio), mesh_(mesh) {}

WifiUnicastTech::~WifiUnicastTech() {
  if (enabled_) release_radio();
}

void WifiUnicastTech::release_radio() {
  radio_.remove_handler(datagram_handler_);
  radio_.remove_handler(power_handler_);
}

EnableResult WifiUnicastTech::enable(const TechQueues& queues) {
  OMNI_CHECK_MSG(!enabled_, "WifiUnicastTech already enabled");
  OMNI_CHECK(queues.send != nullptr && queues.receive != nullptr &&
             queues.response != nullptr);
  queues_ = queues;
  enabled_ = true;
  radio_.set_powered(true);
  datagram_handler_ = radio_.add_datagram_handler(
      [this](const MeshAddress& from, const SharedBytes& payload,
             bool multicast) {
        if (multicast || !enabled_) return;
        // A unicast flow carries the sender's encoded packet with no link
        // header: the packet is the whole delivered buffer.
        queues_.receive->push(ReceivedPacket{Technology::kWifiUnicast,
                                             LowLevelAddress{from}, payload,
                                             *payload});
      });
  power_handler_ = radio_.add_power_handler([this](bool powered) {
    if (!enabled_) return;
    if (!powered) {
      joined_ = false;
      queues_.response->push(
          TechResponse::status_change(Technology::kWifiUnicast, false));
    } else {
      radio_.join(mesh_,
                  [this, alive = std::weak_ptr<bool>(alive_)](Status s) {
                    if (alive.expired()) return;  // destroyed mid-join
                    joined_ = s.is_ok();
                    queues_.response->push(TechResponse::status_change(
                        Technology::kWifiUnicast, joined_));
                  });
    }
  });
  if (radio_.mesh() == &mesh_) {
    joined_ = true;
  } else {
    radio_.join(mesh_, [this, alive = std::weak_ptr<bool>(alive_)](Status s) {
      if (alive.expired()) return;  // plugin destroyed mid-join
      joined_ = s.is_ok();
      if (!joined_) {
        queues_.response->push(
            TechResponse::status_change(Technology::kWifiUnicast, false));
      }
      // Flush sends that queued up during the join.
      std::vector<SendRequest> waiting;
      waiting.swap(waiting_for_join_);
      for (auto& req : waiting) process(std::move(req));
    });
  }
  queues_.send->set_consumer([this] { drain_send_queue(); });
  return EnableResult{Technology::kWifiUnicast,
                      LowLevelAddress{radio_.address()}};
}

void WifiUnicastTech::disable() {
  if (!enabled_) return;
  drain_send_queue();
  queues_.send->clear_consumer();
  for (auto& req : waiting_for_join_) {
    respond(req, false, "technology disabled");
  }
  waiting_for_join_.clear();
  // Requests parked in the discovery ritual get a terminal response now; a
  // ritual callback firing later finds its token gone and does nothing.
  auto rituals = std::move(in_ritual_);
  in_ritual_.clear();
  for (auto& [token, req] : rituals) {
    respond(*req, false, "technology disabled");
  }
  // Withdraw in-flight flows (see open_flows_): cancel first so the mesh
  // drops its callback, then fail the request on the response queue.
  auto flows = std::move(open_flows_);
  open_flows_.clear();
  for (auto& [id, req] : flows) {
    mesh_.cancel_flow(id);
    respond(*req, false, "technology disabled");
  }
  release_radio();
  enabled_ = false;
}

Duration WifiUnicastTech::estimate_data_time(std::size_t bytes,
                                             bool needs_refresh) const {
  const auto& cal = radio_.calibration();
  Duration t = cal.wifi_rtt * 3.0 + cal.tcp_setup_overhead +
               Duration::seconds(static_cast<double>(bytes) /
                                 cal.wifi_capacity_Bps);
  if (needs_refresh) {
    t += cal.wifi_scan_duration + cal.wifi_join_duration +
         cal.wifi_resolve_query;
  }
  return t;
}

void WifiUnicastTech::drain_send_queue() {
  while (auto request = queues_.send->try_pop()) {
    process(std::move(*request));
  }
}

void WifiUnicastTech::process(SendRequest request) {
  if (request.op != SendOp::kSendData) {
    respond(request, false, "WiFi unicast carries data only");
    return;
  }
  if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
    sc->count_on(radio_.node(), sc->core().tech_send[3]);
    sc->instant_on(radio_.node(), obs::Cat::kTechSend,
                   request.request_id, request.packed->size(), 3);
  }
  if (!std::holds_alternative<MeshAddress>(request.dest)) {
    respond(request, false, "destination is not a mesh address");
    return;
  }
  if (!joined_) {
    if (radio_.management_busy() || radio_.mesh() == nullptr) {
      // Initial join still in flight: hold the request.
      waiting_for_join_.push_back(std::move(request));
      return;
    }
    respond(request, false, "not joined to the mesh");
    return;
  }
  auto req = std::make_shared<SendRequest>(std::move(request));
  if (req->needs_refresh) {
    const std::uint64_t token = next_ritual_token_++;
    in_ritual_.emplace(token, req);
    net::run_discovery_ritual(
        radio_, mesh_, net::RitualOptions{req->refresh_advert_wait},
        [this, token, alive = std::weak_ptr<bool>(alive_)](Status s) {
          if (alive.expired()) return;  // plugin destroyed mid-ritual
          auto it = in_ritual_.find(token);
          if (it == in_ritual_.end()) return;  // answered at disable()
          auto req = std::move(it->second);
          in_ritual_.erase(it);
          if (!s.is_ok()) {
            respond(*req, false, "discovery ritual failed: " + s.message());
            return;
          }
          do_send(std::move(req));
        });
    return;
  }
  do_send(std::move(req));
}

void WifiUnicastTech::do_send(std::shared_ptr<SendRequest> request) {
  const MeshAddress dest = std::get<MeshAddress>(request->dest);
  auto req = request;
  // The flow id is only known after open_flow returns, but the completion
  // callback needs it to deregister itself; route it through a shared slot.
  auto id_slot = std::make_shared<radio::FlowId>(0);
  auto flow = mesh_.open_flow(
      radio_, dest, req->packed->size(),
      [this, req, id_slot](Status s) {
        open_flows_.erase(*id_slot);
        respond(*req, s.is_ok(), s.message());
      },
      /*progress=*/nullptr, /*payload=*/req->packed);
  if (!flow) {
    respond(*request, false, flow.error_message());
    return;
  }
  *id_slot = flow.value();
  open_flows_.emplace(flow.value(), std::move(req));
}

void WifiUnicastTech::respond(const SendRequest& request, bool success,
                              std::string failure) {
  if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
    sc->instant_on(radio_.node(), obs::Cat::kTechResponse,
                   request.request_id, success ? 0 : 1, 3);
  }
  queues_.response->push(TechResponse::result(Technology::kWifiUnicast,
                                              request, success,
                                              std::move(failure)));
}

}  // namespace omni
