#include "apps/prophet.h"

#include <algorithm>
#include <cmath>

#include "common/byte_buffer.h"
#include "common/logging.h"
#include "common/result.h"

namespace omni::apps {

namespace {
constexpr std::size_t kMessageHeader = 4 + 8 + 8;  // id, source, dest
}

ProphetNode::ProphetNode(baselines::D2dStack& stack, sim::Simulator& sim,
                         ProphetConfig config)
    : stack_(stack),
      sim_(sim),
      config_(config),
      next_message_id_(
          static_cast<std::uint32_t>(stack.self() & 0xffffu) << 16 | 1u) {
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    ev_originate_ = sc->app_event("prophet.originate");
    ev_forward_ = sc->app_event("prophet.forward");
    ev_deliver_attempt_ = sc->app_event("prophet.deliver_attempt");
    ev_delivered_ = sc->app_event("prophet.delivered");
    ev_buffered_ = sc->app_event("prophet.buffered");
  }
}

void ProphetNode::note(const obs::AppEvent& ev, std::uint32_t id) {
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->mark_app(ev, id);
  }
}

void ProphetNode::start() {
  OMNI_CHECK_MSG(!started_, "already started");
  started_ = true;
  stack_.set_advert_handler([this](PeerId peer, const Bytes& summary) {
    on_advert(peer, summary);
  });
  stack_.set_data_handler(
      [this](PeerId peer, BytesView wire) { on_data(peer, wire); });
  stack_.start();
  refresh_advert();
}

double ProphetNode::aged(const Entry& e) const {
  double seconds = (sim_.now() - e.updated).as_seconds();
  if (seconds <= 0) return e.p;
  return e.p * std::pow(config_.gamma, seconds);
}

double ProphetNode::predictability(PeerId dest) const {
  auto it = table_.find(dest);
  return it == table_.end() ? 0.0 : aged(it->second);
}

void ProphetNode::seed_predictability(PeerId dest, double p) {
  table_[dest] = Entry{p, sim_.now()};
}

void ProphetNode::bump_encounter(PeerId peer) {
  Entry& e = table_[peer];
  double p = aged(e);
  e.p = p + (1.0 - p) * config_.p_init;
  e.updated = sim_.now();
}

void ProphetNode::apply_transitivity(PeerId via, PeerId dest,
                                     double p_via_dest) {
  if (dest == stack_.self()) return;
  double p_self_via = predictability(via);
  double candidate = p_self_via * p_via_dest * config_.beta;
  Entry& e = table_[dest];
  double current = aged(e);
  if (candidate > current) {
    e.p = candidate;
    e.updated = sim_.now();
  }
}

void ProphetNode::buffer_message(Message m) {
  if (buffer_.size() >= config_.buffer_capacity) {
    // Evict the oldest carried message.
    buffer_.erase(buffer_.begin());
    ++dropped_capacity_;
  }
  buffer_.push_back(std::move(m));
}

void ProphetNode::purge_expired() {
  TimePoint now = sim_.now();
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    if (now - it->created > config_.message_ttl) {
      it = buffer_.erase(it);
      ++expired_;
    } else {
      ++it;
    }
  }
}

std::uint32_t ProphetNode::originate(PeerId dest,
                                     std::uint64_t payload_bytes) {
  OMNI_CHECK_MSG(started_, "start() first");
  OMNI_CHECK_MSG(payload_bytes >= kMessageHeader,
                 "message too small for its header");
  std::uint32_t id = next_message_id_++;
  buffer_message(Message{id, stack_.self(), dest, payload_bytes,
                         sim_.now()});
  seen_.insert(id);
  note(ev_originate_, id);
  // An eligible carrier may already be in range.
  for (PeerId peer : stack_.known_peers()) try_forward(peer);
  return id;
}

Bytes ProphetNode::encode_summary() const {
  // Top-N aged entries: [u8 count][u64 dest, u16 p_fixed]*
  //
  // The summary is tiny (it must fit a BLE advertisement), so entries for
  // destinations that are NOT current neighbors take priority: a neighbor's
  // presence is already implied by its own beacons, while reachability of a
  // remote destination is exactly what peers cannot otherwise learn.
  std::vector<PeerId> neighbors = stack_.known_peers();
  auto is_neighbor = [&](PeerId id) {
    return std::find(neighbors.begin(), neighbors.end(), id) !=
           neighbors.end();
  };
  std::vector<std::pair<PeerId, double>> entries;
  for (const auto& [dest, e] : table_) {
    double p = aged(e);
    if (p > 0.001) entries.emplace_back(dest, p);
  }
  std::sort(entries.begin(), entries.end(),
            [&](const auto& a, const auto& b) {
              bool an = is_neighbor(a.first);
              bool bn = is_neighbor(b.first);
              if (an != bn) return !an;  // non-neighbors first
              return a.second > b.second;
            });
  if (entries.size() > config_.summary_entries) {
    entries.resize(config_.summary_entries);
  }
  ByteWriter w(1 + entries.size() * 10);
  w.u8(static_cast<std::uint8_t>(entries.size()));
  for (const auto& [dest, p] : entries) {
    w.u64(dest);
    w.u16(static_cast<std::uint16_t>(std::min(1.0, p) * 65535.0));
  }
  return std::move(w).take();
}

void ProphetNode::refresh_advert() {
  stack_.advertise(encode_summary(), config_.advert_interval);
}

void ProphetNode::on_advert(PeerId peer, const Bytes& summary) {
  purge_expired();
  bump_encounter(peer);
  ByteReader r(summary);
  auto count = r.u8();
  std::map<PeerId, double> peer_table;
  if (count) {
    for (std::uint8_t i = 0; i < count.value(); ++i) {
      auto dest = r.u64();
      auto p = r.u16();
      if (!dest || !p) break;
      double prob = static_cast<double>(p.value()) / 65535.0;
      peer_table[dest.value()] = prob;
      apply_transitivity(peer, dest.value(), prob);
    }
  }
  refresh_advert();

  // Forwarding decision: hand a buffered message to this peer if it is the
  // destination or a better carrier.
  for (const Message& m : buffer_) {
    if (m.dest == peer) continue;  // handled in try_forward
    auto it = peer_table.find(m.dest);
    double p_peer = it == peer_table.end() ? 0.0 : it->second;
    double p_self = predictability(m.dest);
    if (p_peer > p_self && offered_[peer].count(m.id) == 0) {
      offered_[peer].insert(m.id);
      std::uint32_t id = m.id;
      stack_.send(peer, encode_message(m), [this, peer, id](Status s) {
        if (!s.is_ok()) offered_[peer].erase(id);  // retry on next advert
      });
      note(ev_forward_, id);
    }
  }
  try_forward(peer);
}

void ProphetNode::try_forward(PeerId peer) {
  // Direct delivery of anything destined to this peer.
  for (const Message& m : buffer_) {
    if (m.dest != peer || offered_[peer].count(m.id) != 0) continue;
    offered_[peer].insert(m.id);
    std::uint32_t id = m.id;
    stack_.send(peer, encode_message(m), [this, peer, id](Status s) {
      if (!s.is_ok()) offered_[peer].erase(id);
    });
    note(ev_deliver_attempt_, id);
  }
}

Bytes ProphetNode::encode_message(const Message& m) const {
  Bytes wire(m.bytes, 0xCD);
  ByteWriter w(kMessageHeader);
  w.u32(m.id);
  w.u64(m.source);
  w.u64(m.dest);
  const Bytes& header = w.bytes();
  std::copy(header.begin(), header.end(), wire.begin());
  return wire;
}

void ProphetNode::on_data(PeerId /*peer*/, BytesView wire) {
  ByteReader r(wire);
  auto id = r.u32();
  auto source = r.u64();
  auto dest = r.u64();
  if (!id || !source || !dest) return;
  if (seen_.count(id.value()) > 0) return;
  seen_.insert(id.value());

  if (dest.value() == stack_.self()) {
    delivered_here_.insert(id.value());
    note(ev_delivered_, id.value());
    if (on_delivered_) on_delivered_(id.value(), source.value());
    return;
  }
  // Buffer and carry.
  buffer_message(Message{id.value(), source.value(), dest.value(),
                         wire.size(), sim_.now()});
  note(ev_buffered_, id.value());
  for (PeerId peer : stack_.known_peers()) try_forward(peer);
}

}  // namespace omni::apps
