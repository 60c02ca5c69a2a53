#include "radio/mesh.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.h"
#include "radio/wifi_radio.h"
#include "obs/omniscope.h"
#include "sim/fault_plan.h"

namespace omni::radio {

namespace {
/// Bulk multicast fragments served per scheduler event (keeps the event count
/// manageable for multi-megabyte transfers without changing throughput).
constexpr std::uint64_t kFragmentsPerServe = 64;
/// Contention stretch applied to bulk multicast while TCP flows are active.
constexpr double kBulkContentionStretch = 2.0;
/// Channel share bulk multicast claims from TCP while backlogged.
constexpr double kBulkAirtimeFraction = 0.5;
/// Flow endpoints are re-validated (range/membership) this often.
constexpr Duration kFlowValidationPeriod = Duration::millis(500);
}  // namespace

MeshNetwork::MeshNetwork(WifiSystem& system, std::string name)
    : system_(system), name_(std::move(name)) {}

Duration MeshNetwork::min_latency() const {
  return system_.calibration().wifi_rtt * 0.5;
}

const sim::FaultPlan* MeshNetwork::fault_plan() const {
  return system_.world().fault_plan();
}

bool MeshNetwork::fault_partitioned(const WifiRadio& a, const WifiRadio& b,
                                    TimePoint at) const {
  const sim::FaultPlan* plan = fault_plan();
  if (plan == nullptr) return false;
  auto& world = system_.world();
  return plan->partitioned(world.position(a.node()), world.position(b.node()),
                           at);
}

MeshNetwork::~MeshNetwork() {
  validator_.cancel();
  for (auto& [id, flow] : flows_) flow.completion.cancel();
}

void MeshNetwork::add_member(WifiRadio& radio) {
  auto& on_node = members_by_node_[radio.node()];
  if (std::find(on_node.begin(), on_node.end(), &radio) != on_node.end()) {
    return;
  }
  members_.push_back(&radio);
  on_node.push_back(&radio);
}

void MeshNetwork::remove_member(WifiRadio& radio) {
  // Search from the back: a Testbed tears devices down newest-first, so
  // each member is found and erased at the end.
  auto it = std::find(members_.rbegin(), members_.rend(), &radio);
  if (it == members_.rend()) return;
  members_.erase(std::next(it).base());
  auto by_node = members_by_node_.find(radio.node());
  if (by_node != members_by_node_.end()) {
    auto& on_node = by_node->second;
    on_node.erase(std::remove(on_node.begin(), on_node.end(), &radio),
                  on_node.end());
    if (on_node.empty()) members_by_node_.erase(by_node);
  }
  fail_flows_involving(radio, "peer left the mesh");
}

const std::vector<WifiRadio*>* MeshNetwork::members_on_node(
    NodeId node) const {
  auto it = members_by_node_.find(node);
  return it == members_by_node_.end() ? nullptr : &it->second;
}

bool MeshNetwork::is_member(const WifiRadio& radio) const {
  const auto* on_node = members_on_node(radio.node());
  return on_node != nullptr &&
         std::find(on_node->begin(), on_node->end(), &radio) !=
             on_node->end();
}

WifiRadio* MeshNetwork::find_member(const MeshAddress& addr) const {
  // A radio's address is MeshAddress::from_node(its node), so the address
  // names the only node whose members can carry it. Members on a node stay
  // in join order: the first-joined radio with the address wins.
  const auto node = static_cast<NodeId>(addr.value);
  if (MeshAddress::from_node(node) != addr) return nullptr;
  const auto* on_node = members_on_node(node);
  if (on_node == nullptr) return nullptr;
  for (WifiRadio* r : *on_node) {
    if (r->address() == addr) return r;
  }
  return nullptr;
}

double MeshNetwork::beacon_occupancy_seconds() const {
  return system_.calibration().wifi_multicast_beacon_occupancy.as_seconds();
}

double MeshNetwork::multicast_airtime_fraction() const {
  double frac = bulk_busy_ ? kBulkAirtimeFraction : 0.0;
  for (const auto& [id, f] : periodic_loads_) frac += f;
  return std::min(frac, 0.95);
}

double MeshNetwork::effective_capacity_Bps() const {
  const auto& cal = system_.calibration();
  return cal.wifi_capacity_Bps * (1.0 - multicast_airtime_fraction());
}

double MeshNetwork::current_flow_rate_Bps() const {
  std::size_t started = 0;
  for (const auto& [id, f] : flows_) {
    if (f.started) ++started;
  }
  if (started == 0) return 0;
  return effective_capacity_Bps() / static_cast<double>(started);
}

// --- Unicast TCP -----------------------------------------------------------

Result<FlowId> MeshNetwork::open_flow(WifiRadio& src, const MeshAddress& dst,
                                      std::uint64_t bytes, FlowDoneFn done,
                                      FlowProgressFn progress,
                                      SharedBytes payload) {
  const auto& cal = system_.calibration();
  auto& sim = system_.simulator();
  if (!src.powered() || src.mesh() != this) {
    return Result<FlowId>::error("source radio is not a member of " + name_);
  }
  WifiRadio* peer = find_member(dst);
  if (peer == nullptr) {
    return Result<FlowId>::error("no member with address " + dst.to_string() +
                                 " in " + name_);
  }
  FlowId id = next_flow_id_++;
  Flow flow;
  flow.id = id;
  flow.src = &src;
  flow.dst = peer;
  flow.remaining_bytes = static_cast<double>(bytes);
  flow.total_bytes = bytes;
  flow.done = std::move(done);
  flow.progress = std::move(progress);
  flow.payload = std::move(payload);
  flow.last_settle = sim.now();
  flows_.emplace(id, std::move(flow));
  if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
    sc->async_begin_on(src.node(), obs::Cat::kFlow, id, bytes);
  }

  bool reachable =
      peer->powered() && system_.world().in_range(src.node(), peer->node(),
                                                  cal.wifi_range_m) &&
      !fault_partitioned(src, *peer, sim.now());
  if (!reachable) {
    // SYN retries time out.
    flows_[id].completion = sim.after(cal.tcp_connect_timeout, [this, id] {
      finish_flow(id, Status::error("connect timeout: peer unreachable"));
    });
    return id;
  }

  Duration setup = cal.wifi_rtt * 3.0 + cal.tcp_setup_overhead;
  flows_[id].completion = sim.after(setup, [this, id] {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    settle_flows();
    it->second.started = true;
    it->second.last_settle = system_.simulator().now();
    recompute_rates();
  });
  return id;
}

void MeshNetwork::cancel_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle_flows();
  it->second.completion.cancel();
  it->second.done = nullptr;  // cancelled flows report nothing
  finish_flow(id, Status::error("cancelled"));
}

void MeshNetwork::charge_flow_segment(Flow& flow, TimePoint t0, TimePoint t1,
                                      double bytes) {
  if (bytes <= 0) return;
  const auto& cal = system_.calibration();
  double span = (t1 - t0).as_seconds();
  double airtime = bytes / cal.wifi_capacity_Bps;
  double active = airtime + span * cal.wifi_stream_duty;
  double reverse = active * cal.tcp_reverse_activity_factor;
  flow.src->tx_charger().charge_active(t0, t1, active);
  flow.src->rx_charger().charge_active(t0, t1, reverse);
  flow.dst->rx_charger().charge_active(t0, t1, active);
  flow.dst->tx_charger().charge_active(t0, t1, reverse);
}

void MeshNetwork::settle_flows() {
  TimePoint now = system_.simulator().now();
  for (auto& [id, flow] : flows_) {
    if (!flow.started) continue;
    double dt = (now - flow.last_settle).as_seconds();
    if (dt <= 0) continue;
    double moved = std::min(flow.rate_Bps * dt, flow.remaining_bytes);
    flow.remaining_bytes -= moved;
    charge_flow_segment(flow, flow.last_settle, now, moved);
    flow.last_settle = now;
    if (moved > 0 && flow.progress) {
      flow.progress(flow.total_bytes -
                    static_cast<std::uint64_t>(flow.remaining_bytes));
    }
  }
}

void MeshNetwork::recompute_rates() {
  settle_flows();
  double rate = current_flow_rate_Bps();
  for (auto& [id, flow] : flows_) {
    if (!flow.started) continue;
    flow.rate_Bps = rate;
    schedule_completion(flow);
  }
  ensure_validator();
}

void MeshNetwork::schedule_completion(Flow& flow) {
  flow.completion.cancel();
  if (flow.rate_Bps <= 0) return;
  double secs = flow.remaining_bytes / flow.rate_Bps;
  FlowId id = flow.id;
  flow.completion = system_.simulator().after(
      Duration::seconds(secs), [this, id] {
        auto it = flows_.find(id);
        if (it == flows_.end()) return;
        settle_flows();
        it->second.remaining_bytes = 0;  // absorb fp rounding
        finish_flow(id, Status::ok());
      });
}

void MeshNetwork::finish_flow(FlowId id, Status status) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  it->second.completion.cancel();
  if (obs::Omniscope* sc = OMNI_SCOPE(system_.simulator())) {
    sc->async_end_on(it->second.src->node(), obs::Cat::kFlow, id,
                     status.is_ok() ? 0 : 1);
  }
  FlowDoneFn done = std::move(it->second.done);
  SharedBytes payload = std::move(it->second.payload);
  WifiRadio* dst = it->second.dst;
  MeshAddress src_addr = it->second.src->address();
  flows_.erase(it);
  recompute_rates();
  if (status.is_ok() && payload != nullptr && !payload->empty()) {
    dst->deliver_datagram(src_addr, payload, /*multicast=*/false);
  }
  if (done) done(std::move(status));
}

void MeshNetwork::fail_flows_involving(WifiRadio& radio,
                                       const std::string& why) {
  settle_flows();
  std::vector<FlowId> failed;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == &radio || flow.dst == &radio) failed.push_back(id);
  }
  for (FlowId id : failed) finish_flow(id, Status::error(why));
}

void MeshNetwork::validate_flow_ranges() {
  const auto& cal = system_.calibration();
  settle_flows();
  std::vector<FlowId> failed;
  for (const auto& [id, flow] : flows_) {
    bool ok = flow.src->powered() && flow.dst->powered() &&
              flow.src->mesh() == this && flow.dst->mesh() == this &&
              system_.world().in_range(flow.src->node(), flow.dst->node(),
                                       cal.wifi_range_m) &&
              !fault_partitioned(*flow.src, *flow.dst,
                                 system_.simulator().now());
    if (!ok) failed.push_back(id);
  }
  for (FlowId id : failed) {
    finish_flow(id, Status::error("link lost: peer out of range"));
  }
}

void MeshNetwork::ensure_validator() {
  if (flows_.empty() || validator_.pending()) return;
  validator_ = system_.simulator().after(kFlowValidationPeriod, [this] {
    validate_flow_ranges();
    ensure_validator();
  });
}

// --- Datagrams and multicast ------------------------------------------------

Status MeshNetwork::send_datagram(WifiRadio& src, const MeshAddress& dst,
                                  Bytes payload) {
  const auto& cal = system_.calibration();
  if (!src.powered() || src.mesh() != this) {
    return Status::error("source radio is not a member of " + name_);
  }
  WifiRadio* peer = find_member(dst);
  if (peer == nullptr) {
    return Status::error("no member with address " + dst.to_string());
  }
  if (!peer->powered() ||
      !system_.world().in_range(src.node(), peer->node(), cal.wifi_range_m)) {
    return Status::error("peer unreachable");
  }
  auto& sim = system_.simulator();
  // Small frame: half an RTT of latency, short tx/rx bursts for energy.
  src.meter().charge_for(Duration::millis(2), cal.wifi_send_ma,
                         obs::EnergyRail::kWifi);
  if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
    sc->count_on(src.node(), sc->core().mesh_tx);
    sc->instant_on(src.node(), obs::Cat::kMeshTx, peer->node(),
                   payload.size());
  }
  Duration extra = Duration::zero();
  if (const sim::FaultPlan* plan = fault_plan()) {
    // UDP semantics: a faulted frame vanishes (or arrives mangled) and the
    // sender still sees ok — it already paid the tx energy.
    const std::uint64_t salt = ++fault_salt_;
    const TimePoint now = sim.now();
    obs::Omniscope* sc = OMNI_SCOPE(sim);
    if (fault_partitioned(src, *peer, now)) {
      plan->note_partition_drop();
      if (sc != nullptr) {
        sc->count_on(src.node(), sc->core().fault_partition_drops);
        sc->instant_on(src.node(), obs::Cat::kFaultPartition, peer->node());
      }
      return Status::ok();
    }
    if (plan->dropped(src.node(), peer->node(), sim::FaultRadio::kWifi, now,
                      salt)) {
      plan->note_drop();
      if (sc != nullptr) {
        sc->count_on(src.node(), sc->core().fault_drops);
        sc->instant_on(src.node(), obs::Cat::kFaultDrop, peer->node());
      }
      return Status::ok();
    }
    if (plan->corrupted(src.node(), peer->node(), sim::FaultRadio::kWifi, now,
                        salt)) {
      plan->note_corruption();
      if (sc != nullptr) {
        sc->count_on(src.node(), sc->core().fault_corruptions);
        sc->instant_on(src.node(), obs::Cat::kFaultCorrupt, peer->node());
      }
      sim::FaultPlan::corrupt_in_place(payload, salt);
    }
    extra = plan->extra_latency(src.node(), peer->node(),
                                sim::FaultRadio::kWifi, now);
    if (extra > Duration::zero()) {
      plan->note_delay();
      if (sc != nullptr) {
        sc->count_on(src.node(), sc->core().fault_delays);
        sc->instant_on(src.node(), obs::Cat::kFaultDelay,
                       static_cast<std::uint64_t>(extra.as_micros()));
      }
    }
  }
  MeshAddress from = src.address();
  sim.after(cal.wifi_rtt * 0.5 + extra,
            [peer, from,
             frame = std::make_shared<const Bytes>(std::move(payload)), &cal] {
              peer->meter().charge_for(Duration::millis(2),
                                       cal.wifi_receive_ma,
                                       obs::EnergyRail::kWifi);
              peer->deliver_datagram(from, frame, /*multicast=*/false);
            });
  return Status::ok();
}

std::vector<WifiRadio*> MeshNetwork::receivers_in_range(
    const WifiRadio& src) const {
  const auto& cal = system_.calibration();
  auto& world = system_.world();
  std::vector<WifiRadio*> out;
  // Grid-backed candidate iteration: ask the world for nodes within range
  // (ascending by id, sender's node included for co-located members) and
  // resolve them through the membership index.
  world.nodes_near(src.node(), cal.wifi_range_m, scratch_nodes_);
  for (NodeId node : scratch_nodes_) {
    auto it = members_by_node_.find(node);
    if (it == members_by_node_.end()) continue;
    for (WifiRadio* r : it->second) {
      if (r == &src || !r->powered()) continue;
      out.push_back(r);
    }
  }
  return out;
}

Status MeshNetwork::multicast_datagram(WifiRadio& src, Bytes payload) {
  const auto& cal = system_.calibration();
  if (!src.powered() || src.mesh() != this) {
    return Status::error("source radio is not a member of " + name_);
  }
  auto& sim = system_.simulator();
  // The sender pays the full driver wakeup + queueing burst.
  src.meter().charge_for(cal.wifi_multicast_send_burst, cal.wifi_send_ma,
                         obs::EnergyRail::kWifi);
  if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
    sc->count_on(src.node(), sc->core().mesh_tx);
    sc->instant_on(src.node(), obs::Cat::kMeshMulticast, 0, payload.size());
  }
  // Serialize on the channel behind other multicast traffic.
  TimePoint start = std::max(sim.now(), mc_busy_until_);
  Duration occ = cal.wifi_multicast_beacon_occupancy;
  mc_busy_until_ = start + occ;
  MeshAddress from = src.address();
  sim.at(mc_busy_until_, [this, &src, from,
                          frame = std::make_shared<const Bytes>(
                              std::move(payload))] {
    const auto& c = system_.calibration();
    const sim::FaultPlan* plan = fault_plan();
    const TimePoint now = system_.simulator().now();
    const std::uint64_t salt = plan != nullptr ? ++fault_salt_ : 0;
    for (WifiRadio* rx : receivers_in_range(src)) {
      rx->meter().charge_for(Duration::millis(3), c.wifi_receive_ma,
                             obs::EnergyRail::kWifi);
      if (plan != nullptr) {
        obs::Omniscope* sc = OMNI_SCOPE(system_.simulator());
        if (fault_partitioned(src, *rx, now)) {
          plan->note_partition_drop();
          if (sc != nullptr) {
            sc->count_on(src.node(), sc->core().fault_partition_drops);
            sc->instant_on(src.node(), obs::Cat::kFaultPartition, rx->node());
          }
          continue;
        }
        if (plan->dropped(src.node(), rx->node(), sim::FaultRadio::kWifi, now,
                          salt)) {
          plan->note_drop();
          if (sc != nullptr) {
            sc->count_on(src.node(), sc->core().fault_drops);
            sc->instant_on(src.node(), obs::Cat::kFaultDrop, rx->node());
          }
          continue;
        }
        if (plan->corrupted(src.node(), rx->node(), sim::FaultRadio::kWifi,
                            now, salt)) {
          plan->note_corruption();
          if (sc != nullptr) {
            sc->count_on(src.node(), sc->core().fault_corruptions);
            sc->instant_on(src.node(), obs::Cat::kFaultCorrupt, rx->node());
          }
          auto mangled = std::make_shared<Bytes>(*frame);
          sim::FaultPlan::corrupt_in_place(*mangled, salt);
          rx->deliver_datagram(from, std::move(mangled), /*multicast=*/true);
          continue;
        }
      }
      rx->deliver_datagram(from, frame, /*multicast=*/true);
    }
  });
  return Status::ok();
}

Status MeshNetwork::multicast_bulk(WifiRadio& src, std::uint64_t bytes,
                                   Bytes payload, MulticastDoneFn done) {
  const auto& cal = system_.calibration();
  if (!src.powered() || src.mesh() != this) {
    return Status::error("source radio is not a member of " + name_);
  }
  std::uint64_t fragments =
      std::max<std::uint64_t>(1, (bytes + cal.wifi_multicast_mtu - 1) /
                                     cal.wifi_multicast_mtu);
  bulk_queue_.push_back(
      BulkItem{&src, fragments, bytes,
               std::make_shared<const Bytes>(std::move(payload)),
               std::move(done)});
  if (!bulk_busy_) {
    bulk_busy_ = true;
    recompute_rates();
    service_bulk_queue();
  }
  return Status::ok();
}

void MeshNetwork::service_bulk_queue() {
  auto& sim = system_.simulator();
  if (bulk_queue_.empty()) {
    if (bulk_busy_) {
      bulk_busy_ = false;
      recompute_rates();
    }
    return;
  }
  const auto& cal = system_.calibration();
  BulkItem& item = bulk_queue_.front();

  if (!item.src->powered() || item.src->mesh() != this) {
    // Sender dropped out: abandon the item.
    MulticastDoneFn done = std::move(item.done);
    bulk_queue_.pop_front();
    if (done) done({});
    service_bulk_queue();
    return;
  }

  std::uint64_t n = std::min<std::uint64_t>(kFragmentsPerServe,
                                            item.fragments_left);
  double frag_air =
      static_cast<double>(cal.wifi_multicast_mtu) * 8.0 /
      cal.wifi_multicast_base_rate_bps;
  double frag_occ = frag_air + cal.wifi_multicast_overhead.as_seconds();
  double stretch = flows_.empty() ? 1.0 : kBulkContentionStretch;
  Duration busy = Duration::seconds(static_cast<double>(n) * frag_occ *
                                    stretch);
  // Energy: actual airtime only; contention/backoff idles at standby draw.
  Duration airtime = Duration::seconds(static_cast<double>(n) * frag_air);
  item.src->meter().charge_for(airtime, cal.wifi_send_ma,
                               obs::EnergyRail::kWifi);
  for (WifiRadio* rx : receivers_in_range(*item.src)) {
    rx->meter().charge_for(airtime, cal.wifi_receive_ma,
                           obs::EnergyRail::kWifi);
  }
  if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
    sc->count_on(item.src->node(), sc->core().mesh_tx, n);
    sc->instant_on(item.src->node(), obs::Cat::kMeshMulticast, n,
                   static_cast<std::uint64_t>(n) * cal.wifi_multicast_mtu);
  }

  item.fragments_left -= n;
  bool last = item.fragments_left == 0;
  sim.after(busy, [this, last] {
    if (last) {
      BulkItem item = std::move(bulk_queue_.front());
      bulk_queue_.pop_front();
      auto rx = receivers_in_range(*item.src);
      MeshAddress from = item.src->address();
      const sim::FaultPlan* plan = fault_plan();
      if (plan != nullptr) {
        // A bulk chunk rides many fragments; model faults as whole-transfer
        // loss per receiver (a partitioned or lossy receiver misses it).
        const TimePoint now = system_.simulator().now();
        const std::uint64_t salt = ++fault_salt_;
        auto gone = [&](WifiRadio* r) {
          if (fault_partitioned(*item.src, *r, now)) {
            plan->note_partition_drop();
            return true;
          }
          if (plan->dropped(item.src->node(), r->node(),
                            sim::FaultRadio::kWifi, now, salt)) {
            plan->note_drop();
            return true;
          }
          return false;
        };
        rx.erase(std::remove_if(rx.begin(), rx.end(), gone), rx.end());
      }
      for (WifiRadio* r : rx) {
        r->deliver_datagram(from, item.payload, /*multicast=*/true);
      }
      if (item.done) item.done(std::move(rx));
    }
    service_bulk_queue();
  });
}

PeriodicLoadId MeshNetwork::register_periodic_multicast(Duration period) {
  OMNI_CHECK_MSG(period > Duration::zero(), "periodic load needs period > 0");
  PeriodicLoadId id = next_load_id_++;
  periodic_loads_[id] = beacon_occupancy_seconds() / period.as_seconds();
  recompute_rates();
  return id;
}

void MeshNetwork::unregister_periodic_multicast(PeriodicLoadId id) {
  if (periodic_loads_.erase(id) > 0) recompute_rates();
}

}  // namespace omni::radio
