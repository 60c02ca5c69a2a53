#include "apps/disseminate.h"

#include "common/byte_buffer.h"
#include "common/logging.h"

namespace omni::apps {

DisseminateApp::DisseminateApp(baselines::D2dStack& stack,
                               net::InfraNetwork& infra,
                               radio::WifiRadio& infra_radio,
                               sim::Simulator& sim, DisseminateConfig config,
                               std::uint64_t assigned_first,
                               std::uint64_t assigned_count)
    : stack_(stack),
      infra_(infra),
      infra_radio_(infra_radio),
      sim_(sim),
      config_(config),
      assigned_first_(assigned_first),
      assigned_count_(assigned_count),
      store_(config.file_bytes, config.chunk_bytes) {
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    ev_chunk_infra_ = sc->app_event("disseminate.chunk_infra");
    ev_chunk_d2d_ = sc->app_event("disseminate.chunk_d2d");
    ev_complete_ = sc->app_event("disseminate.complete");
  }
}

void DisseminateApp::note(const obs::AppEvent& ev, std::uint64_t a0) {
  if (obs::Omniscope* sc = OMNI_SCOPE(sim_)) {
    sc->mark_app(ev, a0);
  }
}

void DisseminateApp::start() {
  OMNI_CHECK_MSG(!started_, "already started");
  started_ = true;
  started_at_ = sim_.now();

  stack_.set_advert_handler(
      [this](baselines::D2dStack::PeerId peer, const Bytes& info) {
        on_peer_advert(peer, info);
      });
  stack_.set_data_handler(
      [this](baselines::D2dStack::PeerId peer, BytesView data) {
        on_peer_data(peer, data);
      });
  stack_.start();
  refresh_advert();
  pump_infra();
}

Bytes DisseminateApp::chunk_payload(std::uint64_t id) const {
  // 4-byte chunk id header, then filler standing in for the media bytes.
  Bytes payload(store_.size_of(id), 0xAB);
  payload[0] = static_cast<std::uint8_t>(id >> 24);
  payload[1] = static_cast<std::uint8_t>(id >> 16);
  payload[2] = static_cast<std::uint8_t>(id >> 8);
  payload[3] = static_cast<std::uint8_t>(id);
  return payload;
}

bool DisseminateApp::promised_by_peer(std::uint64_t id) const {
  for (const auto& [peer, state] : peers_) {
    if (id < state.has.size() && state.has[id]) return true;
  }
  return false;
}

double DisseminateApp::d2d_rate_Bps() const {
  if (d2d_samples_.empty()) return 0;
  std::uint64_t bytes = 0;
  for (const auto& [t, b] : d2d_samples_) bytes += b;
  double window = kD2dRateWindow.as_seconds();
  return static_cast<double>(bytes) / window;
}

std::uint64_t DisseminateApp::missing_bytes() const {
  std::uint64_t total = 0;
  for (std::uint64_t id : store_.missing()) total += store_.size_of(id);
  return total;
}

void DisseminateApp::pump_infra() {
  if (infra_busy_ || store_.complete()) return;

  // Assigned range first, then (optionally) backfill anything still missing.
  std::optional<std::uint64_t> next;
  for (std::uint64_t i = 0; i < assigned_count_; ++i) {
    std::uint64_t id = assigned_first_ + i;
    if (!store_.has(id) && infra_in_flight_.count(id) == 0) {
      next = id;
      break;
    }
  }
  if (!next && config_.infra_backfill) {
    // Prefer chunks no peer holds; fall back to promised chunks only when
    // D2D supply is too slow to be worth waiting for.
    std::optional<std::uint64_t> promised;
    for (std::uint64_t id = 0; id < store_.chunk_count(); ++id) {
      if (store_.has(id) || infra_in_flight_.count(id) != 0) continue;
      if (!promised_by_peer(id)) {
        next = id;
        break;
      }
      if (!promised) promised = id;
    }
    if (!next && promised) {
      // Trim stale samples, then compare expected waits.
      TimePoint now = sim_.now();
      while (!d2d_samples_.empty() &&
             now - d2d_samples_.front().first > kD2dRateWindow) {
        d2d_samples_.pop_front();
      }
      double rate = d2d_rate_Bps();
      double remaining = static_cast<double>(missing_bytes());
      double d2d_wait = rate > 0 ? remaining / rate : 1e18;
      double infra_time = remaining / config_.infra_rate_Bps;
      if (d2d_wait > kBackfillBias * infra_time) {
        next = promised;
      } else if (!backfill_recheck_.pending()) {
        // D2D looks healthy: hold off and re-evaluate shortly.
        backfill_recheck_ =
            sim_.after(Duration::seconds(1), [this] { pump_infra(); });
      }
    }
  }
  if (!next) return;

  infra_busy_ = true;
  infra_in_flight_.insert(*next);
  Status s = infra_.fetch_chunk(
      infra_radio_, *next, store_.size_of(*next), config_.infra_rate_Bps,
      [this](std::uint64_t id) {
        infra_busy_ = false;
        infra_in_flight_.erase(id);
        on_chunk_obtained(id, /*from_infra=*/true);
        pump_infra();
      });
  if (!s.is_ok()) {
    infra_busy_ = false;
    infra_in_flight_.erase(*next);
  }
}

void DisseminateApp::on_chunk_obtained(std::uint64_t id, bool from_infra) {
  if (!store_.add(id)) {
    ++duplicates_;
    return;
  }
  if (from_infra) {
    ++chunks_from_infra_;
    infra_chunks_.insert(id);
  } else {
    ++chunks_from_d2d_;
    d2d_samples_.emplace_back(sim_.now(), store_.size_of(id));
  }
  note(from_infra ? ev_chunk_infra_ : ev_chunk_d2d_, id);
  refresh_advert();

  // Offer the new chunk to peers that lack it. Only chunks this device
  // pulled from the infrastructure are pushed — peers that received a chunk
  // via D2D would otherwise re-share it redundantly.
  if (from_infra) {
    if (config_.share_via_broadcast) {
      if (stack_.supports_broadcast_data() &&
          broadcast_done_.count(id) == 0) {
        broadcast_done_.insert(id);
        stack_.broadcast_data(chunk_payload(id), nullptr);
      }
    } else {
      for (auto& [peer, state] : peers_) {
        if (id < state.has.size() && !state.has[id] &&
            state.sent.count(id) == 0) {
          state.queued.insert(id);
        }
        pump_sends(peer);
      }
    }
  }

  if (store_.complete() && completed_at_ == TimePoint::max()) {
    completed_at_ = sim_.now();
    note(ev_complete_);
  }
}

void DisseminateApp::refresh_advert() {
  stack_.advertise(store_.bitmap(), kAdvertInterval);
}

void DisseminateApp::on_peer_advert(baselines::D2dStack::PeerId peer,
                                    const Bytes& info) {
  PeerState& state = peers_[peer];
  state.has = ChunkStore::parse_bitmap(info, store_.chunk_count());
  if (config_.share_via_broadcast) return;
  for (std::uint64_t id = 0; id < store_.chunk_count(); ++id) {
    if (store_.has(id) && infra_chunks_.count(id) > 0 && !state.has[id] &&
        state.sent.count(id) == 0) {
      state.queued.insert(id);
    } else if (id < state.has.size() && state.has[id]) {
      state.queued.erase(id);
    }
  }
  pump_sends(peer);
}

std::size_t DisseminateApp::peer_holders(std::uint64_t id) const {
  std::size_t holders = 0;
  for (const auto& [peer, state] : peers_) {
    if (id < state.has.size() && state.has[id]) ++holders;
  }
  return holders;
}

std::uint64_t DisseminateApp::pick_queued_chunk(
    const std::set<std::uint64_t>& queued) const {
  if (config_.push_order == DisseminateConfig::PushOrder::kSequential) {
    return *queued.begin();
  }
  // Rarest first: fewest peer holders wins; ties go to the lowest id.
  std::uint64_t best = *queued.begin();
  std::size_t best_holders = peer_holders(best);
  for (std::uint64_t id : queued) {
    std::size_t holders = peer_holders(id);
    if (holders < best_holders) {
      best = id;
      best_holders = holders;
    }
  }
  return best;
}

void DisseminateApp::pump_sends(baselines::D2dStack::PeerId peer) {
  PeerState& state = peers_[peer];
  while (state.in_flight < kSendWindow && !state.queued.empty()) {
    std::uint64_t id = pick_queued_chunk(state.queued);
    state.queued.erase(id);
    state.sent.insert(id);
    ++state.in_flight;
    stack_.send(peer, chunk_payload(id), [this, peer, id](Status s) {
      auto it = peers_.find(peer);
      if (it == peers_.end()) return;
      --it->second.in_flight;
      if (!s.is_ok()) {
        // Allow a retry on the next advertisement.
        it->second.sent.erase(id);
      }
      pump_sends(peer);
    });
  }
}

void DisseminateApp::on_peer_data(baselines::D2dStack::PeerId /*peer*/,
                                  BytesView data) {
  if (data.size() < 4) return;
  std::uint64_t id = (static_cast<std::uint64_t>(data[0]) << 24) |
                     (static_cast<std::uint64_t>(data[1]) << 16) |
                     (static_cast<std::uint64_t>(data[2]) << 8) |
                     static_cast<std::uint64_t>(data[3]);
  if (id >= store_.chunk_count()) return;
  on_chunk_obtained(id, /*from_infra=*/false);
}

}  // namespace omni::apps
