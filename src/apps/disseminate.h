// Disseminate-like D2D media sharing (paper §4.3, after Srinivasan et al.).
//
// Co-located devices download pieces of one media file from a (mock)
// infrastructure network and share them device-to-device: each device
// periodically advertises a holdings bitmap as lightweight metadata
// ("devices exchange meta-data describing their available and desired data
// before exchanging the (much larger) data itself") and pushes chunks peers
// are missing as heavyweight data.
//
// Infrastructure policy: a device first downloads its assigned range, then
// backfills missing chunks from the infrastructure whenever D2D has not
// already supplied them — so a device is never idle waiting on a slow D2D
// path (at high infrastructure rates this degrades gracefully to the
// paper's "SP equals direct download" observation).
//
// With an Omniscope attached before construction, every newly stored chunk
// (disseminate.chunk_infra / disseminate.chunk_d2d, a0 = chunk id) and the
// file's completion (disseminate.complete) are counted and recorded.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "apps/chunk_store.h"
#include "baselines/d2d_stack.h"
#include "net/infra.h"
#include "obs/omniscope.h"

namespace omni::apps {

struct DisseminateConfig {
  std::uint64_t file_bytes = 30ull * 1000 * 1000;  ///< paper: 30 MB
  std::uint64_t chunk_bytes = 250ull * 1000;       ///< 120 chunks
  double infra_rate_Bps = 100e3;  ///< paper: 100 or 1000 KBps
  /// Share chunks via multicast broadcast instead of per-peer unicast (the
  /// paper's SP configuration "purely uses multicast over WiFi-Mesh").
  bool share_via_broadcast = false;
  /// Push order for queued chunks: sequential (lowest id first) or
  /// rarest-first (prefer chunks the fewest peers hold — the classic swarm
  /// heuristic that spreads distinct pieces fastest).
  enum class PushOrder { kSequential, kRarestFirst };
  PushOrder push_order = PushOrder::kSequential;
  /// Keep backfilling missing chunks from the infrastructure after the
  /// assigned range completes.
  bool infra_backfill = true;
};

class DisseminateApp {
 public:
  /// `assigned_first`/`assigned_count`: this device's piece of the file.
  DisseminateApp(baselines::D2dStack& stack, net::InfraNetwork& infra,
                 radio::WifiRadio& infra_radio, sim::Simulator& sim,
                 DisseminateConfig config, std::uint64_t assigned_first,
                 std::uint64_t assigned_count);

  void start();

  const ChunkStore& store() const { return store_; }
  bool complete() const { return store_.complete(); }
  TimePoint completed_at() const { return completed_at_; }
  TimePoint started_at() const { return started_at_; }

  std::uint64_t chunks_from_infra() const { return chunks_from_infra_; }
  std::uint64_t chunks_from_d2d() const { return chunks_from_d2d_; }
  std::uint64_t duplicate_chunks() const { return duplicates_; }

 private:
  void pump_infra();
  void on_chunk_obtained(std::uint64_t id, bool from_infra);
  void refresh_advert();
  void on_peer_advert(baselines::D2dStack::PeerId peer, const Bytes& info);
  void on_peer_data(baselines::D2dStack::PeerId peer, BytesView data);
  void pump_sends(baselines::D2dStack::PeerId peer);
  Bytes chunk_payload(std::uint64_t id) const;
  /// How many known peers hold chunk `id` (rarest-first scoring).
  std::size_t peer_holders(std::uint64_t id) const;
  /// Pick the next queued chunk for `peer` per the configured push order.
  std::uint64_t pick_queued_chunk(const std::set<std::uint64_t>& queued) const;
  /// Count and record one app event on the Omniscope, if one is attached.
  void note(const obs::AppEvent& ev, std::uint64_t a0 = 0);

  static constexpr Duration kAdvertInterval = Duration::millis(500);
  /// Max unicast chunk transfers in flight per peer.
  static constexpr std::size_t kSendWindow = 2;
  /// Rate-aware backfill: a chunk some peer already holds ("promised") is
  /// only re-fetched from the infrastructure when the observed D2D supply
  /// rate is so slow that waiting would take more than kBackfillBias times
  /// the infrastructure download time. This is what lets a multicast-
  /// limited deployment degrade gracefully to direct-download speed while a
  /// TCP-backed one trusts its peers.
  static constexpr double kBackfillBias = 2.0;
  /// Window over which the D2D supply rate is estimated.
  static constexpr Duration kD2dRateWindow = Duration::seconds(10);

  baselines::D2dStack& stack_;
  net::InfraNetwork& infra_;
  radio::WifiRadio& infra_radio_;
  sim::Simulator& sim_;
  DisseminateConfig config_;
  std::uint64_t assigned_first_;
  std::uint64_t assigned_count_;

  ChunkStore store_;
  bool started_ = false;
  TimePoint started_at_;
  TimePoint completed_at_ = TimePoint::max();
  bool infra_busy_ = false;
  std::set<std::uint64_t> infra_in_flight_;

  struct PeerState {
    std::vector<bool> has;
    std::set<std::uint64_t> queued;    // chunks waiting to send
    std::set<std::uint64_t> sent;      // sent or in flight
    std::size_t in_flight = 0;
  };
  std::map<baselines::D2dStack::PeerId, PeerState> peers_;
  std::set<std::uint64_t> broadcast_done_;  // chunks already multicast
  std::set<std::uint64_t> infra_chunks_;    // chunks this device downloaded

  std::uint64_t chunks_from_infra_ = 0;
  std::uint64_t chunks_from_d2d_ = 0;
  std::uint64_t duplicates_ = 0;

  /// (time, bytes) samples of D2D chunk arrivals for rate estimation.
  std::deque<std::pair<TimePoint, std::uint64_t>> d2d_samples_;
  sim::EventHandle backfill_recheck_;

  obs::AppEvent ev_chunk_infra_, ev_chunk_d2d_, ev_complete_;

  bool promised_by_peer(std::uint64_t id) const;
  double d2d_rate_Bps() const;
  std::uint64_t missing_bytes() const;
};

}  // namespace omni::apps
