// PROPHET probabilistic DTN routing (Lindgren et al. 2003), layered over a
// D2dStack — the paper's second real-application evaluation (§4.3).
//
// Each node maintains delivery predictabilities P(self, dest) with the
// standard three rules:
//   encounter:    P = P_old + (1 - P_old) * P_init
//   aging:        P = P_old * gamma^(seconds elapsed)
//   transitivity: P(a,c) = max(P_old, P(a,b) * P(b,c) * beta)
//
// Nodes continuously advertise a compact summary of their predictability
// table as *context* ("devices continuously share summaries of their
// historical encounters with neighboring peers"); buffered messages are
// forwarded as *data* to encountered nodes with a strictly higher delivery
// predictability for the destination.
//
// With an Omniscope attached before construction, every message lifecycle
// step (prophet.originate/forward/deliver_attempt/delivered/buffered) is
// counted and recorded as an instant whose a0 is the message id.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "baselines/d2d_stack.h"
#include "obs/omniscope.h"
#include "sim/simulator.h"

namespace omni::apps {

struct ProphetConfig {
  /// Buffer capacity in messages; the oldest message is evicted when full
  /// (standard DTN store-and-carry behavior).
  std::size_t buffer_capacity = 64;
  /// Messages older than this are purged instead of forwarded.
  Duration message_ttl = Duration::seconds(3600);
};

class ProphetNode {
 public:
  using PeerId = baselines::D2dStack::PeerId;
  using DeliveredFn =
      std::function<void(std::uint32_t message_id, PeerId source)>;

  ProphetNode(baselines::D2dStack& stack, sim::Simulator& sim,
              ProphetConfig config = {});

  void start();

  /// Inject a message originating here, destined for `dest`.
  /// `payload_bytes` is the simulated size (a 4 KB photo, the paper's 1 KB
  /// file, ...). Returns the message id.
  std::uint32_t originate(PeerId dest, std::uint64_t payload_bytes);

  void set_delivered_handler(DeliveredFn fn) { on_delivered_ = std::move(fn); }

  /// Seed an encounter history (e.g., "B has met C before").
  void seed_predictability(PeerId dest, double p);

  /// Current (aged) delivery predictability for `dest`.
  double predictability(PeerId dest) const;

  std::size_t buffered_messages() const { return buffer_.size(); }
  std::size_t delivered_count() const { return delivered_here_.size(); }
  std::uint64_t dropped_capacity() const { return dropped_capacity_; }
  std::uint64_t expired_messages() const { return expired_; }

 private:
  // The three rules' constants (Lindgren et al.'s defaults).
  static constexpr double kPInit = 0.75;
  static constexpr double kBeta = 0.25;
  static constexpr double kGamma = 0.98;  ///< per second
  static constexpr Duration kAdvertInterval = Duration::millis(500);
  /// Max predictability entries in one summary advert (BLE-constrained).
  static constexpr std::size_t kSummaryEntries = 2;

  struct Entry {
    double p = 0;
    TimePoint updated;
  };
  struct Message {
    std::uint32_t id;
    PeerId source;
    PeerId dest;
    std::uint64_t bytes;
    TimePoint created;
  };

  double aged(const Entry& e) const;
  void buffer_message(Message m);
  void purge_expired();
  void bump_encounter(PeerId peer);
  void apply_transitivity(PeerId via, PeerId dest, double p_via_dest);
  void refresh_advert();
  Bytes encode_summary() const;
  void on_advert(PeerId peer, const Bytes& summary);
  void on_data(PeerId peer, BytesView wire);
  void try_forward(PeerId peer);
  Bytes encode_message(const Message& m) const;
  /// Count and record one lifecycle step of message `id` on the Omniscope.
  void note(const obs::AppEvent& ev, std::uint32_t id);

  baselines::D2dStack& stack_;
  sim::Simulator& sim_;
  ProphetConfig config_;

  std::map<PeerId, Entry> table_;
  std::vector<Message> buffer_;
  std::set<std::uint32_t> seen_;            // message ids ever held
  std::set<std::uint32_t> delivered_here_;  // ids delivered to this node
  std::map<PeerId, std::set<std::uint32_t>> offered_;  // per-peer dedup
  DeliveredFn on_delivered_;
  std::uint32_t next_message_id_;
  bool started_ = false;
  std::uint64_t dropped_capacity_ = 0;
  std::uint64_t expired_ = 0;

  obs::AppEvent ev_originate_, ev_forward_, ev_deliver_attempt_,
      ev_delivered_, ev_buffered_;
};

}  // namespace omni::apps
