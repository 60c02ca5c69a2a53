// WiFi-Aware (Neighbor Awareness Networking) model.
//
// The technology the paper expects to "eventually replace multicast over
// WiFi as a technology for context transmission" (§3.2). All enabled radios
// share a synchronized discovery-window (DW) schedule; within each window a
// radio transmits its active publishes (service discovery frames) and
// queued follow-up datagrams, and receives its peers' — then sleeps until
// the next window. Duty cycle ~3%, at WiFi range, with no network to join.
//
// Attendance control models NAN power save: a radio may attend only every
// nth window (the Omni plugin uses this for disengaged probe-listening).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "common/types.h"
#include "radio/calibration.h"
#include "radio/energy_meter.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace omni::radio {

class NanRadio;

/// The shared DW schedule and delivery fabric.
class NanSystem {
 public:
  NanSystem(sim::World& world, const Calibration& cal)
      : world_(world), cal_(cal) {}
  NanSystem(const NanSystem&) = delete;
  NanSystem& operator=(const NanSystem&) = delete;
  ~NanSystem() { tick_event_.cancel(); }

  void attach(NanRadio* radio);
  void detach(NanRadio* radio);
  /// Schedule the next discovery window unless one is already pending or
  /// no radio is enabled.
  void ensure_ticking();

  /// Start of the next discovery window at or after `now`.
  TimePoint next_window_start(TimePoint now) const;
  std::uint64_t window_index(TimePoint at) const;

  /// Smallest cross-node latency NAN can produce: frames transmitted in a
  /// discovery window are processed after it ends. NAN runs barrier-
  /// serialized (global owner), so this bounds nothing today — exposed for
  /// symmetry with the sharded media and for lookahead audits.
  Duration min_latency() const { return cal_.nan_dw_duration; }

  sim::World& world() { return world_; }
  const Calibration& calibration() const { return cal_; }
  std::uint64_t windows_run() const { return windows_run_; }

 private:
  void run_window();

  sim::World& world_;
  const Calibration& cal_;
  std::vector<NanRadio*> radios_;
  sim::EventHandle tick_event_;
  std::uint64_t windows_run_ = 0;
  /// Fault-draw salt, bumped per frame. Windows run barrier-serialized, so
  /// one counter is deterministic at any thread count.
  std::uint64_t fault_salt_ = 0;
  // Per-window scratch (cleared each window): awake radios indexed by node
  // for grid-backed publish fan-out, and the candidate-node query buffer.
  std::unordered_map<NodeId, std::vector<NanRadio*>> awake_by_node_;
  std::vector<NodeId> scratch_nodes_;
};

class NanRadio {
 public:
  using ReceiveFn =
      std::function<void(const NanAddress& from, const Bytes& payload)>;
  using SendDoneFn = std::function<void(Status)>;
  using PublishId = std::uint32_t;

  NanRadio(NanSystem& system, sim::Simulator& sim, EnergyMeter& meter,
           NodeId node, const Calibration& cal);
  ~NanRadio();
  NanRadio(const NanRadio&) = delete;
  NanRadio& operator=(const NanRadio&) = delete;

  const NanAddress& address() const { return address_; }
  NodeId node() const { return node_; }
  sim::Simulator& simulator() { return sim_; }

  /// Enable NAN operation (joins the DW schedule).
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Attend only every nth DW (1 = every window; larger = power save).
  void set_attendance(std::uint32_t every_nth);
  std::uint32_t attendance() const { return attendance_; }

  /// Begin publishing a service discovery frame in every attended window.
  Result<PublishId> publish(Bytes payload);
  Status update_publish(PublishId id, Bytes payload);
  Status stop_publish(PublishId id);
  std::size_t active_publishes() const { return publishes_.size(); }

  /// Queue a follow-up datagram for `dest`, transmitted in the next window
  /// both devices attend.
  Status send_followup(const NanAddress& dest, Bytes payload,
                       SendDoneFn done);

  void set_receive_handler(ReceiveFn fn) { on_receive_ = std::move(fn); }

  // Called by the NanSystem during windows.
  bool attends(std::uint64_t window_index) const;
  void window_wake(TimePoint window_start);
  void deliver(const NanAddress& from, const Bytes& payload);
  const std::map<PublishId, Bytes>& publishes() const { return publishes_; }
  struct Followup {
    NanAddress dest;
    Bytes payload;
    SendDoneFn done;
    /// Windows left before the follow-up gives up (destination asleep or
    /// out of range throughout).
    int windows_left = 10;
  };
  std::deque<Followup>& followups() { return followups_; }
  EnergyMeter& meter() { return meter_; }
  const Calibration& calibration() const { return cal_; }

 private:
  NanSystem& system_;
  sim::Simulator& sim_;
  EnergyMeter& meter_;
  NodeId node_;
  const Calibration& cal_;
  NanAddress address_;

  bool enabled_ = false;
  std::uint32_t attendance_ = 1;
  std::map<PublishId, Bytes> publishes_;
  PublishId next_publish_ = 1;
  std::deque<Followup> followups_;
  ReceiveFn on_receive_;
};

}  // namespace omni::radio
