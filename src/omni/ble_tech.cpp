#include "omni/ble_tech.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/omniscope.h"
#include "net/link_frame.h"

namespace omni {

BleTech::BleTech(radio::BleRadio& radio, Options options)
    : radio_(radio), options_(options) {}

double BleTech::effective_scan_duty() const {
  const double base = engaged_ ? 1.0 : options_.probe_scan_duty;
  return scan_duty_override_ > 0.0 ? std::min(scan_duty_override_, base)
                                   : base;
}

EnableResult BleTech::enable(const TechQueues& queues) {
  OMNI_CHECK_MSG(!enabled_, "BleTech already enabled");
  OMNI_CHECK(queues.send != nullptr && queues.receive != nullptr &&
             queues.response != nullptr);
  queues_ = queues;
  enabled_ = true;
  radio_.set_powered(true);
  radio_.set_receive_handler(
      [this](const BleAddress& from, const SharedBytes& frame) {
        on_radio_receive(from, frame);
      });
  radio_.set_power_handler([this](bool powered) {
    if (!enabled_) return;
    if (!powered) {
      // The radio dropped our advertisements; forget them and tell the
      // manager so it can re-home contexts and beacons.
      context_advs_.clear();
      queues_.response->push(
          TechResponse::status_change(Technology::kBle, false));
    } else {
      radio_.set_scanning(true, effective_scan_duty(),
                          scan_duty_override_ > 0.0);
      queues_.response->push(
          TechResponse::status_change(Technology::kBle, true));
    }
  });
  radio_.set_address_handler([this](const BleAddress& fresh) {
    if (!enabled_) return;
    queues_.response->push(TechResponse::address_change(
        Technology::kBle, LowLevelAddress{fresh}));
  });
  radio_.set_scanning(true, effective_scan_duty(),
                      scan_duty_override_ > 0.0);
  queues_.send->set_consumer([this] { drain_send_queue(); });
  return EnableResult{Technology::kBle, LowLevelAddress{radio_.address()}};
}

void BleTech::disable() {
  if (!enabled_) return;
  // Graceful shutdown: process what is still queued, then stop.
  drain_send_queue();
  queues_.send->clear_consumer();
  for (auto& [id, adv] : context_advs_) radio_.stop_advertising(adv);
  context_advs_.clear();
  radio_.set_scanning(false);
  radio_.set_receive_handler(nullptr);
  radio_.set_power_handler(nullptr);
  enabled_ = false;
}

std::size_t BleTech::max_context_payload() const {
  // One advertisement PDU minus the broadcast frame byte.
  return radio_.max_payload() - kBleBroadcastFrameOverhead;
}

std::size_t BleTech::max_data_payload() const {
  // Advertisement + scan response minus the unicast frame header.
  return 2 * radio_.max_payload() - kBleUnicastFrameOverhead;
}

Duration BleTech::estimate_data_time(std::size_t /*bytes*/,
                                     bool /*needs_refresh*/) const {
  const auto& cal = radio_.calibration();
  return Duration::micros(cal.ble_fast_adv_interval.as_micros() / 2) +
         cal.ble_adv_event;
}

void BleTech::set_engaged(bool engaged) {
  engaged_ = engaged;
  if (enabled_) {
    radio_.set_scanning(true, effective_scan_duty(),
                        scan_duty_override_ > 0.0);
  }
}

void BleTech::set_discovery_scan_duty(double duty) {
  if (duty <= 0.0 || duty > 1.0) duty = 0.0;  // clear the cap
  if (duty == scan_duty_override_) return;
  scan_duty_override_ = duty;
  if (enabled_) {
    radio_.set_scanning(true, effective_scan_duty(),
                        scan_duty_override_ > 0.0);
  }
}

void BleTech::drain_send_queue() {
  while (auto request = queues_.send->try_pop()) {
    process(std::move(*request));
  }
}

void BleTech::process(SendRequest request) {
  switch (request.op) {
    case SendOp::kAddContext: {
      if (context_advs_.count(request.context_id) > 0) {
        respond(request, false, "context id already active on BLE");
        return;
      }
      auto adv = radio_.start_advertising(frame_broadcast(*request.packed),
                                          request.interval);
      if (!adv) {
        respond(request, false, adv.error_message());
        return;
      }
      context_advs_[request.context_id] = adv.value();
      respond(request, true);
      return;
    }
    case SendOp::kUpdateContext: {
      auto it = context_advs_.find(request.context_id);
      if (it == context_advs_.end()) {
        respond(request, false, "no such context on BLE");
        return;
      }
      Status s = radio_.update_advertising(
          it->second, frame_broadcast(*request.packed), request.interval);
      respond(request, s.is_ok(), s.message());
      return;
    }
    case SendOp::kRemoveContext: {
      auto it = context_advs_.find(request.context_id);
      if (it == context_advs_.end()) {
        respond(request, false, "no such context on BLE");
        return;
      }
      Status s = radio_.stop_advertising(it->second);
      context_advs_.erase(it);
      respond(request, s.is_ok(), s.message());
      return;
    }
    case SendOp::kSendData: {
      if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
        sc->count_on(radio_.node(), sc->core().tech_send[0]);
        sc->instant_on(radio_.node(), obs::Cat::kTechSend,
                       request.request_id, request.packed->size(), 0);
      }
      if (!std::holds_alternative<BleAddress>(request.dest)) {
        respond(request, false, "destination is not a BLE address");
        return;
      }
      Bytes frame = frame_unicast_ble(std::get<BleAddress>(request.dest),
                                      *request.packed);
      // Capture by value: the request must outlive the async send.
      auto req = std::make_shared<SendRequest>(std::move(request));
      Status s = radio_.send_datagram(std::move(frame), [this, req](Status st) {
        respond(*req, st.is_ok(), st.message());
      });
      if (!s.is_ok()) respond(*req, false, s.message());
      return;
    }
  }
}

void BleTech::on_radio_receive(const BleAddress& from,
                               const SharedBytes& frame) {
  if (!enabled_) return;
  auto packed = unframe_ble_view(*frame, radio_.address());
  if (!packed) return;  // malformed or addressed to another device
  queues_.receive->push(
      ReceivedPacket{Technology::kBle, LowLevelAddress{from}, frame, *packed});
}

void BleTech::respond(const SendRequest& request, bool success,
                      std::string failure) {
  if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
    sc->instant_on(radio_.node(), obs::Cat::kTechResponse,
                   request.request_id, success ? 0 : 1, 0);
  }
  queues_.response->push(TechResponse::result(Technology::kBle, request,
                                              success, std::move(failure)));
}

}  // namespace omni
