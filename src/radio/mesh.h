// A WiFi-Mesh network: membership, fluid-flow unicast TCP, and 802.11
// multicast with base-rate airtime accounting.
//
// The fluid model: active TCP flows share the effective channel capacity
// equally; the effective capacity is the calibrated capacity scaled down by
// the fraction of airtime multicast traffic occupies (periodic discovery
// beacons registered via register_periodic_multicast, plus bulk multicast
// backlog). This is the minimal model that reproduces both the paper's slow
// multicast data path (Table 5, State of the Practice) and the ~8 % TCP
// impediment that periodic multicast discovery inflicts on the State of the
// Art (Table 5, 1000 KBps row).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "common/types.h"
#include "radio/wifi_system.h"
#include "sim/event_queue.h"

namespace omni::radio {

class WifiRadio;

using FlowId = std::uint64_t;
using PeriodicLoadId = std::uint64_t;

class MeshNetwork {
 public:
  using FlowDoneFn = std::function<void(Status)>;
  /// Progress callback: cumulative bytes delivered so far.
  using FlowProgressFn = std::function<void(std::uint64_t bytes_done)>;
  /// Multicast bulk completion: receivers the chunk reached.
  using MulticastDoneFn = std::function<void(std::vector<WifiRadio*>)>;

  MeshNetwork(WifiSystem& system, std::string name);
  ~MeshNetwork();
  MeshNetwork(const MeshNetwork&) = delete;
  MeshNetwork& operator=(const MeshNetwork&) = delete;

  const std::string& name() const { return name_; }

  // --- Membership (called by WifiRadio::join/leave).
  void add_member(WifiRadio& radio);
  void remove_member(WifiRadio& radio);
  bool is_member(const WifiRadio& radio) const;
  WifiRadio* find_member(const MeshAddress& addr) const;
  const std::vector<WifiRadio*>& members() const { return members_; }
  /// Member radios hosted on `node` (attach order), or nullptr if none —
  /// the grid-backed fan-out paths resolve candidate nodes through this.
  const std::vector<WifiRadio*>* members_on_node(NodeId node) const;

  // --- Unicast TCP (fluid flows).
  /// Open a reliable flow of `bytes` from src to the member at `dst`.
  /// Completion (or failure: unknown peer, out of range, membership loss)
  /// is reported through `done`. The flow includes connection setup
  /// (3*RTT + tcp_setup_overhead) before bytes move. If `payload` is
  /// non-null and non-empty it is handed to the destination radio's
  /// datagram handlers when the flow completes (the in-band application
  /// message). The flow holds a reference to the caller's buffer, not a
  /// copy, and drops it when the flow completes, fails or is cancelled.
  Result<FlowId> open_flow(WifiRadio& src, const MeshAddress& dst,
                           std::uint64_t bytes, FlowDoneFn done,
                           FlowProgressFn progress = nullptr,
                           SharedBytes payload = nullptr);
  void cancel_flow(FlowId id);
  std::size_t active_flow_count() const { return flows_.size(); }
  /// Current per-flow fluid rate in bytes/sec (0 when no flows).
  double current_flow_rate_Bps() const;

  // --- Small unicast datagram (UDP-style single frame, no fluid flow).
  Status send_datagram(WifiRadio& src, const MeshAddress& dst, Bytes payload);

  // --- Multicast.
  /// Broadcast a small datagram (discovery beacon / advert) to all members
  /// in range of src. Channel occupancy = beacon_occupancy (calibrated
  /// contention + base-rate airtime); sender is charged the multicast send
  /// burst. If the caller beacons periodically it should also register the
  /// load below so TCP flows feel it.
  Status multicast_datagram(WifiRadio& src, Bytes payload);

  /// Send `bytes` of bulk data via multicast (fragmented at the multicast
  /// MTU, serialized on the channel at the base rate). `payload` is
  /// delivered to every member in range of src when the last fragment
  /// lands.
  Status multicast_bulk(WifiRadio& src, std::uint64_t bytes, Bytes payload,
                        MulticastDoneFn done = nullptr);

  /// Declare a periodic multicast load (period + datagram size) so the fluid
  /// model deducts its airtime from TCP capacity. Returns a handle to
  /// unregister.
  PeriodicLoadId register_periodic_multicast(Duration period);
  void unregister_periodic_multicast(PeriodicLoadId id);

  /// Fraction of channel airtime currently consumed by multicast.
  double multicast_airtime_fraction() const;
  /// Effective capacity available to TCP flows right now (bytes/sec).
  double effective_capacity_Bps() const;

 private:
  struct Flow {
    FlowId id;
    WifiRadio* src;
    WifiRadio* dst;
    double remaining_bytes;
    std::uint64_t total_bytes;
    double rate_Bps = 0;
    TimePoint last_settle;
    bool started = false;  // setup handshake finished
    FlowDoneFn done;
    FlowProgressFn progress;
    SharedBytes payload;  // delivered to dst on successful completion
    sim::EventHandle completion;
  };

  struct BulkItem {
    WifiRadio* src;
    std::uint64_t fragments_left;
    std::uint64_t bytes;
    SharedBytes payload;  // one buffer for every receiver
    MulticastDoneFn done;
  };

  void settle_flows();
  void recompute_rates();
  void schedule_completion(Flow& flow);
  void finish_flow(FlowId id, Status status);
  void fail_flows_involving(WifiRadio& radio, const std::string& why);
  void validate_flow_ranges();
  void ensure_validator();
  void service_bulk_queue();
  void charge_flow_segment(Flow& flow, TimePoint t0, TimePoint t1,
                           double bytes);
  std::vector<WifiRadio*> receivers_in_range(const WifiRadio& src) const;
  double beacon_occupancy_seconds() const;

  WifiSystem& system_;
  std::string name_;
  std::vector<WifiRadio*> members_;
  std::unordered_map<NodeId, std::vector<WifiRadio*>> members_by_node_;
  mutable std::vector<NodeId> scratch_nodes_;  // reused range-query buffer

  std::map<FlowId, Flow> flows_;
  FlowId next_flow_id_ = 1;

  std::map<PeriodicLoadId, double> periodic_loads_;  // id -> airtime fraction
  PeriodicLoadId next_load_id_ = 1;

  std::deque<BulkItem> bulk_queue_;
  bool bulk_busy_ = false;
  TimePoint mc_busy_until_ = TimePoint::origin();

  sim::EventHandle validator_;
  /// Fault-draw salt, bumped per transmission. All mesh traffic is
  /// barrier-serialized (global owner), so a single counter is
  /// deterministic at any thread count.
  std::uint64_t fault_salt_ = 0;

  /// The world's fault plan, or nullptr when injection is unarmed.
  const sim::FaultPlan* fault_plan() const;
  bool fault_partitioned(const WifiRadio& a, const WifiRadio& b,
                         TimePoint at) const;
};

}  // namespace omni::radio
