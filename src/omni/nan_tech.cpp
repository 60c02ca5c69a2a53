#include "omni/nan_tech.h"

#include "net/link_frame.h"
#include "obs/omniscope.h"

namespace omni {

namespace {
/// Link framing overhead on NAN: the broadcast byte for contexts, the
/// unicast header is unnecessary (follow-ups are natively addressed).
constexpr std::size_t kNanFrameOverhead = 1;
}  // namespace

NanTech::NanTech(radio::NanRadio& radio, Options options)
    : radio_(radio), options_(options) {}

EnableResult NanTech::enable(const TechQueues& queues) {
  OMNI_CHECK_MSG(!enabled_, "NanTech already enabled");
  OMNI_CHECK(queues.send != nullptr && queues.receive != nullptr &&
             queues.response != nullptr);
  queues_ = queues;
  enabled_ = true;
  radio_.set_enabled(true);
  radio_.set_attendance(engaged_ ? 1 : options_.probe_attendance);
  radio_.set_receive_handler(
      [this](const NanAddress& from, const SharedBytes& frame) {
        on_receive(from, frame);
      });
  queues_.send->set_consumer([this] { drain_send_queue(); });
  return EnableResult{Technology::kWifiAware,
                      LowLevelAddress{radio_.address()}};
}

void NanTech::disable() {
  if (!enabled_) return;
  drain_send_queue();
  queues_.send->clear_consumer();
  for (auto& [id, pub] : context_publishes_) radio_.stop_publish(pub);
  context_publishes_.clear();
  radio_.set_receive_handler(nullptr);
  radio_.set_enabled(false);
  enabled_ = false;
}

std::size_t NanTech::max_context_payload() const {
  return radio_.calibration().nan_max_payload - kNanFrameOverhead;
}

std::size_t NanTech::max_data_payload() const {
  return radio_.calibration().nan_max_followup - kNanFrameOverhead;
}

Duration NanTech::estimate_data_time(std::size_t /*bytes*/,
                                     bool /*needs_refresh*/) const {
  // A follow-up goes out in the next discovery window: half a period on
  // average, plus the window itself.
  const auto& cal = radio_.calibration();
  return Duration::micros(cal.nan_dw_period.as_micros() / 2) +
         cal.nan_dw_duration;
}

void NanTech::set_engaged(bool engaged) {
  engaged_ = engaged;
  if (enabled_) {
    radio_.set_attendance(engaged_ ? 1 : options_.probe_attendance);
  }
}

void NanTech::drain_send_queue() {
  while (auto request = queues_.send->try_pop()) {
    process(std::move(*request));
  }
}

void NanTech::process(SendRequest request) {
  switch (request.op) {
    case SendOp::kAddContext: {
      if (context_publishes_.count(request.context_id) > 0) {
        respond(request, false, "context id already active on WiFi-Aware");
        return;
      }
      // NAN publishes ride the DW schedule, not a per-context timer: the
      // requested interval is honoured at DW granularity (a 500 ms interval
      // maps to every window).
      auto pub = radio_.publish(frame_broadcast(*request.packed));
      if (!pub) {
        respond(request, false, pub.error_message());
        return;
      }
      context_publishes_[request.context_id] = pub.value();
      respond(request, true);
      return;
    }
    case SendOp::kUpdateContext: {
      auto it = context_publishes_.find(request.context_id);
      if (it == context_publishes_.end()) {
        respond(request, false, "no such context on WiFi-Aware");
        return;
      }
      Status s =
          radio_.update_publish(it->second, frame_broadcast(*request.packed));
      respond(request, s.is_ok(), s.message());
      return;
    }
    case SendOp::kRemoveContext: {
      auto it = context_publishes_.find(request.context_id);
      if (it == context_publishes_.end()) {
        respond(request, false, "no such context on WiFi-Aware");
        return;
      }
      Status s = radio_.stop_publish(it->second);
      context_publishes_.erase(it);
      respond(request, s.is_ok(), s.message());
      return;
    }
    case SendOp::kSendData: {
      if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
        sc->count_on(radio_.node(), sc->core().tech_send[1]);
        sc->instant_on(radio_.node(), obs::Cat::kTechSend,
                       request.request_id, request.packed->size(), 1);
      }
      if (!std::holds_alternative<NanAddress>(request.dest)) {
        respond(request, false, "destination is not a NAN address");
        return;
      }
      NanAddress dest = std::get<NanAddress>(request.dest);
      auto req = std::make_shared<SendRequest>(std::move(request));
      Status s = radio_.send_followup(
          dest, frame_broadcast_data(*req->packed), [this, req](Status st) {
            respond(*req, st.is_ok(), st.message());
          });
      if (!s.is_ok()) respond(*req, false, s.message());
      return;
    }
  }
}

void NanTech::on_receive(const NanAddress& from, const SharedBytes& frame) {
  if (!enabled_ || frame->empty()) return;
  const std::uint8_t type = frame->front();
  if (type != kFrameBroadcast && type != kFrameBroadcastData) return;
  queues_.receive->push(ReceivedPacket{Technology::kWifiAware,
                                       LowLevelAddress{from}, frame,
                                       BytesView(*frame).subspan(1)});
}

void NanTech::respond(const SendRequest& request, bool success,
                      std::string failure) {
  if (obs::Omniscope* sc = OMNI_SCOPE(radio_.simulator())) {
    sc->instant_on(radio_.node(), obs::Cat::kTechResponse,
                   request.request_id, success ? 0 : 1, 1);
  }
  queues_.response->push(TechResponse::result(Technology::kWifiAware,
                                              request, success,
                                              std::move(failure)));
}

}  // namespace omni
