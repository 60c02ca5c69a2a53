#include "radio/nan.h"

#include "obs/omniscope.h"

#include <algorithm>
#include <iterator>

#include "sim/fault_plan.h"

namespace omni::radio {

// --- NanSystem ---------------------------------------------------------------

void NanSystem::attach(NanRadio* radio) {
  // Called once, from the radio's constructor. A new radio is disabled, so
  // it cannot start the tick; set_enabled(true) does that. Appending keeps
  // radios_ in construction order, which run_window iterates.
  radios_.push_back(radio);
}

void NanSystem::detach(NanRadio* radio) {
  // Search from the back: a Testbed tears devices down newest-first, so
  // each radio is found and erased at the end.
  auto it = std::find(radios_.rbegin(), radios_.rend(), radio);
  if (it != radios_.rend()) radios_.erase(std::next(it).base());
}

TimePoint NanSystem::next_window_start(TimePoint now) const {
  std::int64_t period = cal_.nan_dw_period.as_micros();
  std::int64_t t = now.as_micros();
  std::int64_t k = (t + period - 1) / period;
  return TimePoint::from_micros(k * period);
}

std::uint64_t NanSystem::window_index(TimePoint at) const {
  return static_cast<std::uint64_t>(at.as_micros() /
                                    cal_.nan_dw_period.as_micros());
}

void NanSystem::ensure_ticking() {
  if (tick_event_.pending()) return;
  bool any_enabled = false;
  for (NanRadio* r : radios_) any_enabled |= r->enabled();
  if (!any_enabled) return;
  auto& sim = world_.simulator();
  // Pinned to the global owner: the DW tick scans every radio and fans out
  // across nodes, so it must run barrier-serialized no matter which context
  // (re-)starts the ticking.
  TimePoint when = next_window_start(sim.now() + Duration::micros(1));
  tick_event_ =
      sim.after_global(when - sim.now(), [this] { run_window(); });
}

void NanSystem::run_window() {
  auto& sim = world_.simulator();
  TimePoint start = sim.now();
  std::uint64_t index = window_index(start);
  ++windows_run_;

  // Wake every attending radio (charges the DW receive energy) and index
  // the awake set by node so publish fan-out can run off the spatial grid.
  std::vector<NanRadio*> awake;
  awake_by_node_.clear();
  for (NanRadio* r : radios_) {
    if (r->enabled() && r->attends(index)) {
      r->window_wake(start);
      awake.push_back(r);
      awake_by_node_[r->node()].push_back(r);
    }
  }

  // Service discovery frames: every publish reaches every other awake radio
  // in range. Delivery lands just after the window (processing). Candidate
  // receivers come from the grid, not a scan of the whole awake set.
  // Fault injection: the whole window runs barrier-serialized, so a single
  // salt counter keeps draws deterministic; latency spikes only push
  // delivery further past the window.
  const sim::FaultPlan* plan = world_.fault_plan();
  Duration deliver_after = cal_.nan_dw_duration;
  for (NanRadio* tx : awake) {
    if (tx->publishes().empty() && tx->followups().empty()) continue;
    // Transmit airtime for this radio's frames.
    double frames = static_cast<double>(tx->publishes().size());
    if (!tx->publishes().empty()) {
      world_.nodes_near(tx->node(), cal_.nan_range_m, scratch_nodes_);
    }
    Duration tx_extra = Duration::zero();
    if (plan != nullptr) {
      tx_extra = plan->extra_latency(tx->node(), sim::FaultPlan::kAnyNode,
                                     sim::FaultRadio::kNan, start);
      if (tx_extra > Duration::zero()) {
        plan->note_delay();
        if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
          sc->count_on(tx->node(), sc->core().fault_delays);
          sc->instant_on(tx->node(), obs::Cat::kFaultDelay,
                         static_cast<std::uint64_t>(tx_extra.as_micros()));
        }
      }
    }
    for (const auto& [id, payload] : tx->publishes()) {
      const std::uint64_t salt = plan != nullptr ? ++fault_salt_ : 0;
      for (NodeId node : scratch_nodes_) {
        auto it = awake_by_node_.find(node);
        if (it == awake_by_node_.end()) continue;
        for (NanRadio* rx : it->second) {
          if (rx == tx) continue;
          NanAddress from = tx->address();
          SharedBytes frame = payload;
          if (plan != nullptr) {
            obs::Omniscope* sc = OMNI_SCOPE(sim);
            if (plan->partitioned(world_.position(tx->node()),
                                  world_.position(rx->node()), start)) {
              plan->note_partition_drop();
              if (sc != nullptr) {
                sc->count_on(tx->node(), sc->core().fault_partition_drops);
                sc->instant_on(tx->node(), obs::Cat::kFaultPartition,
                               rx->node());
              }
              continue;
            }
            if (plan->dropped(tx->node(), rx->node(), sim::FaultRadio::kNan,
                              start, salt)) {
              plan->note_drop();
              if (sc != nullptr) {
                sc->count_on(tx->node(), sc->core().fault_drops);
                sc->instant_on(tx->node(), obs::Cat::kFaultDrop, rx->node());
              }
              continue;
            }
            if (plan->corrupted(tx->node(), rx->node(), sim::FaultRadio::kNan,
                                start, salt)) {
              plan->note_corruption();
              if (sc != nullptr) {
                sc->count_on(tx->node(), sc->core().fault_corruptions);
                sc->instant_on(tx->node(), obs::Cat::kFaultCorrupt,
                               rx->node());
              }
              auto mangled = std::make_shared<Bytes>(*payload);
              sim::FaultPlan::corrupt_in_place(*mangled, salt);
              frame = std::move(mangled);
            }
          }
          sim.after(deliver_after + tx_extra,
                    [rx, from, frame = std::move(frame)] {
                      rx->deliver(from, frame);
                    });
        }
      }
    }
    // Follow-ups: serviced FIFO; a follow-up whose destination is not awake
    // or not in range stays queued for a later window (bounded retries are
    // the caller's concern via timeouts).
    auto& queue = tx->followups();
    std::size_t n = queue.size();
    for (std::size_t i = 0; i < n; ++i) {
      NanRadio::Followup fu = std::move(queue.front());
      queue.pop_front();
      NanRadio* dest = nullptr;
      for (NanRadio* rx : awake) {
        if (rx->address() == fu.dest) {
          dest = rx;
          break;
        }
      }
      bool reachable =
          dest != nullptr &&
          world_.in_range(tx->node(), dest->node(), cal_.nan_range_m) &&
          !(plan != nullptr &&
            plan->partitioned(world_.position(tx->node()),
                              world_.position(dest->node()), start));
      if (!reachable) {
        if (--fu.windows_left <= 0) {
          if (fu.done) fu.done(Status::error("NAN follow-up timed out"));
        } else {
          queue.push_back(std::move(fu));  // try again next window
        }
        continue;
      }
      frames += 1;
      if (plan != nullptr) {
        const std::uint64_t salt = ++fault_salt_;
        if (plan->dropped(tx->node(), dest->node(), sim::FaultRadio::kNan,
                          start, salt)) {
          // The frame (or its ack) was lost: retry in a later window, like
          // an unreachable destination.
          plan->note_drop();
          if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
            sc->count_on(tx->node(), sc->core().fault_drops);
            sc->instant_on(tx->node(), obs::Cat::kFaultDrop, dest->node());
          }
          if (--fu.windows_left <= 0) {
            if (fu.done) fu.done(Status::error("NAN follow-up timed out"));
          } else {
            queue.push_back(std::move(fu));
          }
          continue;
        }
        if (plan->corrupted(tx->node(), dest->node(), sim::FaultRadio::kNan,
                            start, salt)) {
          plan->note_corruption();
          if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
            sc->count_on(tx->node(), sc->core().fault_corruptions);
            sc->instant_on(tx->node(), obs::Cat::kFaultCorrupt,
                           dest->node());
          }
          auto mangled = std::make_shared<Bytes>(*fu.payload);
          sim::FaultPlan::corrupt_in_place(*mangled, salt);
          fu.payload = std::move(mangled);
        }
      }
      NanAddress from = tx->address();
      NanRadio* rx = dest;
      sim.after(deliver_after + tx_extra,
                [rx, from, payload = std::move(fu.payload),
                 done = std::move(fu.done)] {
                  rx->deliver(from, payload);
                  if (done) done(Status::ok());
                });
    }
    if (frames > 0) {
      tx->meter().charge(
          start, start + cal_.nan_frame_airtime * frames,
          cal_.wifi_send_ma, obs::EnergyRail::kNan);
      if (obs::Omniscope* sc = OMNI_SCOPE(sim)) {
        sc->instant_on(tx->node(), obs::Cat::kNanTx,
                       static_cast<std::uint64_t>(frames));
      }
    }
  }

  tick_event_ = sim.after_global(
      next_window_start(start + Duration::micros(1)) - sim.now(),
      [this] { run_window(); });
  // Stop ticking entirely if nobody is enabled anymore.
  bool any_enabled = false;
  for (NanRadio* r : radios_) any_enabled |= r->enabled();
  if (!any_enabled) tick_event_.cancel();
}

// --- NanRadio ----------------------------------------------------------------

NanRadio::NanRadio(NanSystem& system, sim::Simulator& sim, EnergyMeter& meter,
                   NodeId node, const Calibration& cal)
    : system_(system),
      sim_(sim),
      meter_(meter),
      node_(node),
      cal_(cal),
      address_(NanAddress::from_node(node)) {
  system_.attach(this);
}

NanRadio::~NanRadio() {
  on_receive_ = nullptr;
  set_enabled(false);
  system_.detach(this);
}

void NanRadio::set_enabled(bool enabled) {
  if (enabled_ == enabled) return;
  enabled_ = enabled;
  if (!enabled_) {
    // Pending follow-ups fail: the radio left the cluster.
    std::deque<Followup> dropped;
    dropped.swap(followups_);
    for (auto& fu : dropped) {
      if (fu.done) fu.done(Status::error("NAN disabled"));
    }
    publishes_.clear();
  } else {
    system_.ensure_ticking();
  }
}

void NanRadio::set_attendance(std::uint32_t every_nth) {
  OMNI_CHECK_MSG(every_nth >= 1, "attendance must be >= 1");
  attendance_ = every_nth;
}

bool NanRadio::attends(std::uint64_t window_index) const {
  if (!enabled_) return false;
  // Offset by node id so power-saving radios do not all pick the same
  // windows (they still meet full-attendance radios every window they wake).
  return (window_index + node_) % attendance_ == 0;
}

void NanRadio::window_wake(TimePoint window_start) {
  meter_.charge(window_start, window_start + cal_.nan_dw_duration,
                cal_.wifi_receive_ma, obs::EnergyRail::kNan);
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->count_on(node_, sc->core().nan_dw);
    sc->complete_on(node_, obs::Cat::kNanDw, cal_.nan_dw_duration);
  }
}

Result<NanRadio::PublishId> NanRadio::publish(Bytes payload) {
  if (!enabled_) return Result<PublishId>::error("NAN disabled");
  if (payload.size() > cal_.nan_max_payload) {
    return Result<PublishId>::error("NAN service info exceeds " +
                                    std::to_string(cal_.nan_max_payload) +
                                    " bytes");
  }
  PublishId id = next_publish_++;
  publishes_[id] = std::make_shared<const Bytes>(std::move(payload));
  return id;
}

Status NanRadio::update_publish(PublishId id, Bytes payload) {
  auto it = publishes_.find(id);
  if (it == publishes_.end()) return Status::error("unknown publish id");
  if (payload.size() > cal_.nan_max_payload) {
    return Status::error("NAN service info too large");
  }
  it->second = std::make_shared<const Bytes>(std::move(payload));
  return Status::ok();
}

Status NanRadio::stop_publish(PublishId id) {
  if (publishes_.erase(id) == 0) return Status::error("unknown publish id");
  return Status::ok();
}

Status NanRadio::send_followup(const NanAddress& dest, Bytes payload,
                               SendDoneFn done) {
  if (!enabled_) return Status::error("NAN disabled");
  if (payload.size() > cal_.nan_max_followup) {
    return Status::error("NAN follow-up exceeds " +
                         std::to_string(cal_.nan_max_followup) + " bytes");
  }
  followups_.push_back(Followup{
      dest, std::make_shared<const Bytes>(std::move(payload)),
      std::move(done)});
  return Status::ok();
}

void NanRadio::deliver(const NanAddress& from, const SharedBytes& payload) {
  if (!enabled_) return;
  if (on_receive_) on_receive_(from, payload);
}

}  // namespace omni::radio
