#include "radio/wifi_radio.h"

#include "obs/omniscope.h"
#include "radio/mesh.h"

namespace omni::radio {

WifiRadio::WifiRadio(WifiSystem& system, EnergyMeter& meter, NodeId node)
    : system_(system),
      sim_(system.simulator()),
      meter_(meter),
      node_(node),
      cal_(system.calibration()),
      address_(MeshAddress::from_node(node)),
      rx_charger_(meter, system.calibration().wifi_receive_ma,
                  obs::EnergyRail::kWifi),
      tx_charger_(meter, system.calibration().wifi_send_ma,
                  obs::EnergyRail::kWifi) {
  system_.attach(this);
}

WifiRadio::~WifiRadio() {
  // Callbacks may point at protocol layers that are already gone.
  power_handlers_.clear();
  handlers_.clear();
  set_powered(false);
  system_.detach(this);
}

void WifiRadio::apply_standby_level() {
  meter_.set_level("wifi.standby", powered_ ? cal_.wifi_standby_ma : 0.0,
                   obs::EnergyRail::kWifi);
}

void WifiRadio::set_powered(bool on) {
  if (powered_ == on) return;
  powered_ = on;
  if (!on) {
    leave();
    // Abort any queued management operations.
    std::deque<PendingOp> dropped;
    dropped.swap(pending_ops_);
    op_in_progress_ = false;
    for (auto& op : dropped) {
      if (op.kind == PendingOp::Kind::kScan && op.scan_done) {
        op.scan_done({});
      } else if (op.kind == PendingOp::Kind::kJoin && op.join_done) {
        op.join_done(Status::error("radio powered off"));
      }
    }
  }
  apply_standby_level();
  for (const auto& handler : power_handlers_) handler(powered_);
}

void WifiRadio::scan(ScanFn done) {
  PendingOp op{PendingOp::Kind::kScan, std::move(done), nullptr, nullptr};
  enqueue_op(std::move(op));
}

void WifiRadio::join(MeshNetwork& mesh, JoinFn done) {
  PendingOp op{PendingOp::Kind::kJoin, nullptr, std::move(done), &mesh};
  enqueue_op(std::move(op));
}

void WifiRadio::enqueue_op(PendingOp op) {
  if (!powered_) {
    if (op.kind == PendingOp::Kind::kScan && op.scan_done) {
      op.scan_done({});
    } else if (op.kind == PendingOp::Kind::kJoin && op.join_done) {
      op.join_done(Status::error("radio is off"));
    }
    return;
  }
  pending_ops_.push_back(std::move(op));
  if (!op_in_progress_) start_next_op();
}

void WifiRadio::start_next_op() {
  if (pending_ops_.empty()) {
    op_in_progress_ = false;
    return;
  }
  op_in_progress_ = true;
  PendingOp op = std::move(pending_ops_.front());
  pending_ops_.pop_front();

  if (op.kind == PendingOp::Kind::kScan) {
    meter_.charge_for(cal_.wifi_scan_duration, cal_.wifi_scan_ma,
                      obs::EnergyRail::kWifi);
    if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
      sc->count_on(node_, sc->core().wifi_scans);
      sc->complete_on(node_, obs::Cat::kWifiScan, cal_.wifi_scan_duration);
    }
    sim_.after(cal_.wifi_scan_duration,
               [this, done = std::move(op.scan_done)] {
                 std::vector<MeshNetwork*> found;
                 if (powered_) found = system_.visible_meshes(*this);
                 op_in_progress_ = false;
                 if (done) done(std::move(found));
                 if (!op_in_progress_) start_next_op();
               });
    return;
  }

  // Join: peering + SAE authentication.
  meter_.charge_for(cal_.wifi_join_duration, cal_.wifi_connect_ma,
                    obs::EnergyRail::kWifi);
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->complete_on(node_, obs::Cat::kWifiJoin, cal_.wifi_join_duration);
  }
  sim_.after(cal_.wifi_join_duration,
             [this, mesh = op.target, done = std::move(op.join_done)] {
               Status status = Status::ok();
               if (!powered_) {
                 status = Status::error("radio powered off during join");
               } else {
                 if (mesh_ != nullptr && mesh_ != mesh) leave();
                 if (mesh_ != mesh) {
                   mesh->add_member(*this);
                   mesh_ = mesh;
                 }
               }
               op_in_progress_ = false;
               if (done) done(status);
               if (!op_in_progress_) start_next_op();
             });
}

void WifiRadio::leave() {
  if (mesh_ == nullptr) return;
  MeshNetwork* m = mesh_;
  mesh_ = nullptr;
  m->remove_member(*this);
}

void WifiRadio::deliver_datagram(const MeshAddress& from,
                                 const SharedBytes& payload, bool multicast) {
  if (!powered_) return;
  for (const auto& handler : handlers_) handler(from, payload, multicast);
}

}  // namespace omni::radio
