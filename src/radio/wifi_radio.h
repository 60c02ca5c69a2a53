// One device's 802.11 interface.
//
// States: off, or on (drawing WiFi-standby current) with optional in-progress
// management operation (network scan / mesh join) and optional mesh
// membership. Management operations are serialized in a FIFO, matching a real
// single-chain adapter. Bulk traffic energy is charged through per-direction
// BusyChargers (airtime + tail model), capped so concurrent flows never
// charge more than real time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "common/types.h"
#include "radio/calibration.h"
#include "radio/energy_meter.h"
#include "radio/wifi_system.h"
#include "sim/simulator.h"

namespace omni::radio {

class MeshNetwork;

class WifiRadio {
 public:
  using ScanFn = std::function<void(std::vector<MeshNetwork*>)>;
  using JoinFn = std::function<void(Status)>;
  /// Datagram delivery: `multicast` distinguishes multicast receptions from
  /// unicast ones so protocol layers sharing the radio can demux. `payload`
  /// is the sender's buffer itself (a flow's in-band message, or one
  /// multicast transmission shared by all its receivers); a handler that
  /// keeps a reference keeps the buffer.
  using DatagramFn =
      std::function<void(const MeshAddress& from, const SharedBytes& payload,
                         bool multicast)>;

  WifiRadio(WifiSystem& system, EnergyMeter& meter, NodeId node);
  ~WifiRadio();
  WifiRadio(const WifiRadio&) = delete;
  WifiRadio& operator=(const WifiRadio&) = delete;

  NodeId node() const { return node_; }
  const MeshAddress& address() const { return address_; }
  bool powered() const { return powered_; }

  /// Power the interface. Powering off leaves any mesh, cancels queued
  /// management operations, and drops the standby draw.
  void set_powered(bool on);

  /// Start a full network scan (wifi_scan_duration at wifi_scan_ma); the
  /// callback receives the meshes visible at completion time. Queued behind
  /// any in-progress management operation.
  void scan(ScanFn done);

  /// Peer into `mesh` (wifi_join_duration at wifi_connect_ma). Succeeds even
  /// if no member is currently in range (a lone node can form the mesh).
  void join(MeshNetwork& mesh, JoinFn done);

  /// Leave the current mesh immediately. Active flows through this radio
  /// fail.
  void leave();

  MeshNetwork* mesh() const { return mesh_; }
  bool management_busy() const { return op_in_progress_; }

  /// Names one handler registration, for remove_handler(). Never 0.
  using HandlerId = std::uint64_t;

  /// Add a handler for datagrams delivered by the mesh (multiple protocol
  /// layers may listen on one radio).
  HandlerId add_datagram_handler(DatagramFn fn) {
    handlers_.push_back({++last_handler_id_, std::move(fn)});
    return last_handler_id_;
  }

  /// Notified after every power-state change.
  using PowerFn = std::function<void(bool powered)>;
  HandlerId add_power_handler(PowerFn fn) {
    power_handlers_.push_back({++last_handler_id_, std::move(fn)});
    return last_handler_id_;
  }

  /// Withdraw one datagram or power handler registration; the other
  /// registrations stay. A protocol layer that is going away calls this for
  /// each handler it added. Not from inside a handler. Unknown ids (and 0)
  /// are ignored.
  void remove_handler(HandlerId id);

  void deliver_datagram(const MeshAddress& from, const SharedBytes& payload,
                        bool multicast);

  BusyCharger& rx_charger() { return rx_charger_; }
  BusyCharger& tx_charger() { return tx_charger_; }
  EnergyMeter& meter() { return meter_; }

  WifiSystem& system() { return system_; }
  sim::Simulator& simulator() { return sim_; }
  const Calibration& calibration() const { return cal_; }

 private:
  struct PendingOp {
    enum class Kind { kScan, kJoin } kind;
    ScanFn scan_done;
    JoinFn join_done;
    MeshNetwork* target = nullptr;
  };

  void enqueue_op(PendingOp op);
  void start_next_op();
  void apply_standby_level();

  WifiSystem& system_;
  sim::Simulator& sim_;
  EnergyMeter& meter_;
  NodeId node_;
  const Calibration& cal_;
  MeshAddress address_;

  bool powered_ = false;
  MeshNetwork* mesh_ = nullptr;
  bool op_in_progress_ = false;
  std::vector<PendingOp> pending_ops_;  ///< FIFO: front is next to run
  template <typename Fn>
  struct Registered {
    HandlerId id;
    Fn fn;
  };
  std::vector<Registered<DatagramFn>> handlers_;
  std::vector<Registered<PowerFn>> power_handlers_;
  HandlerId last_handler_id_ = 0;
  BusyCharger rx_charger_;
  BusyCharger tx_charger_;
};

}  // namespace omni::radio
