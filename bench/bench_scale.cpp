// bench_scale: device-count and thread-count sweep over the full Omni stack.
//
// For each device count, lay nodes out on a constant-density grid (25 m
// spacing: everyone has BLE neighbors, nobody hears the whole city), start
// every node with address beaconing + engagement enabled, and run a span of
// virtual time — once per thread count in the sweep. Reports wall-clock
// events/sec, the event-queue high-water mark, and the parallel speedup over
// the single-threaded run, and writes BENCH_scale.json so the numbers seed
// the perf trajectory.
//
// The city section (--huge) scales to 100k nodes: a core of full-stack
// devices surrounded by world-only crowd nodes with deterministic background
// churn (sim::CrowdChurn) driving region migrations. It runs before the
// sweep so its peak_rss_kb is a true high-water mark for the 100k world
// (ru_maxrss is process-monotonic).
//
// Determinism rides the sweep: every run captures its state at the end of
// its span, and each thread count's capture must equal the 1-thread one
// (sim::diff_snapshots, capturing threads ignored). At 10k nodes (and in
// --smoke) every thread count also writes its capture as
// scale_<n|smoke>_t<threads>.osnap, for `omnisnap verify` and
// `omnisnap diff --state`; the serialized size is gated at <= 1 KB per
// full-stack node (<= 64 B per crowd node in the city) and reported as
// snapshot_bytes in BENCH_scale.json.
//
//   $ ./bench/bench_scale              # full sweep: 10..10000 nodes x 1/2/4/8 threads
//   $ ./bench/bench_scale 500          # just one count (before/after checks)
//   $ ./bench/bench_scale 10000 --smoke  # CI: short run, 1/2 threads, no obs
//   $ ./bench/bench_scale --huge       # adds the 100k-node city section
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/testbed.h"
#include "obs/omniscope.h"
#include "obs/perfetto.h"
#include "obs/trace_file.h"
#include "omni/manager_snapshot.h"
#include "omni/omni_node.h"
#include "sim/mobility.h"
#include "sim/snapshot.h"

namespace {

using namespace omni;

constexpr double kSpacingM = 25.0;
// RSS budgets policed at scale (documented in README.md / DESIGN.md): a
// full-stack device — radios, manager, beacon state, event lanes — may cost
// up to 40 KB of peak RSS amortized; a city node (crowd-dominated mix) up to
// 1 KB; and the world layer itself, measured by World::memory_stats(), up to
// 128 B per city node: the city measures ~88 B (an endpoint and a row index
// per node, a motion row per walker, names, listings and vector slack).
constexpr double kFullStackRssBudgetKb = 40.0;
constexpr double kCityRssBudgetKb = 1.0;
constexpr double kWorldBytesBudget = 128.0;
// Serialized snapshot budgets: a full-stack device (manager record, RNG
// stream, world row, pending events) may cost up to 1 KB of .osnap; a
// world-only crowd node up to 64 B (one world row plus queue amortization).
constexpr double kSnapshotFullStackBudget = 1024.0;
constexpr double kSnapshotCrowdBudget = 64.0;

// Sanitizers multiply RSS with shadow memory and redzones, so the
// whole-process budgets above only hold in plain builds. The
// capacity-accounted world_bytes_per_node budget is exact everywhere.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

double g_sim_seconds = 20.0;

struct ScalePoint {
  std::size_t nodes;
  unsigned threads;
  double sim_seconds;
  std::uint64_t events;
  double wall_seconds;
  double events_per_sec;
  std::uint64_t peak_pending_events;
  std::uint64_t windows;
  std::uint64_t global_events;
  std::uint64_t mailbox_posts;
  std::uint64_t contexts_received;
  std::size_t min_peers;
  // Sender frame-cache counter summed over every node's ManagerStats (live
  // with observability off); proves in the JSON that the cache actually
  // fired for the measured run.
  std::uint64_t beacon_encodes;
  // Region-sharded world telemetry (schema v3): region tiles instantiated,
  // nodes handed between regions on mobility events, and mailbox posts whose
  // source and destination shards differ (cross-region coupling; unlike
  // mailbox_posts this depends on owner->shard placement).
  std::uint64_t regions;
  std::uint64_t migrations;
  std::uint64_t cross_region_mailbox_posts;
  // ru_maxrss after the run, in KB on Linux. Monotonic across the process,
  // so within one bench invocation only the largest configuration's row is
  // a true high-water mark; compare like row to like row across runs.
  std::uint64_t peak_rss_kb;
  // Discovery scheduler telemetry (schema v4): beacons saved vs the floor
  // rate and the fleet-mean adaptive interval at run end. Under the default
  // fixed policy both stay at 0 / 500.
  std::uint64_t beacons_suppressed = 0;
  double mean_beacon_interval_ms = 0;
  // City section extras (zero elsewhere).
  std::uint64_t crowd_nodes = 0;
  std::uint64_t churn_moves = 0;
  double world_bytes_per_node = 0;
  // Observability sweep extras (obs_mode > 0 only).
  std::uint64_t trace_records = 0;
  std::uint64_t trace_dropped = 0;
  double export_seconds = 0;
  // End-of-span state capture, and its serialized size when written.
  sim::Snapshot state;
  std::uint64_t snapshot_bytes = 0;
};

/// Capture the end-of-span state into `p`; with a path, also write it and
/// record its size.
void capture_state(net::Testbed& bed, const std::string& label,
                   const std::string& snap_path, ScalePoint& p) {
  p.state = bed.capture_snapshot(label);
  if (snap_path.empty()) return;
  p.snapshot_bytes = sim::serialize_snapshot(p.state).size();
  Status ws = sim::write_snapshot_file(snap_path, p.state);
  if (!ws.is_ok()) std::fprintf(stderr, "warning: %s\n", ws.message().c_str());
}

void collect_engine(net::Testbed& bed, ScalePoint& p) {
  p.events = bed.simulator().executed_events();
  p.peak_pending_events = bed.simulator().peak_pending_events();
  p.windows = bed.simulator().windows_run();
  p.global_events = bed.simulator().global_events_run();
  p.mailbox_posts = bed.simulator().mailbox_posts();
  p.regions = bed.world().region_count();
  p.migrations = bed.world().migrations();
  p.cross_region_mailbox_posts = bed.simulator().cross_shard_mailbox_posts();
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  p.peak_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
}

/// obs_mode: 0 = scope off (null-pointer branch per site), 1 = flight
/// recorder + metrics live at the always-on profile (per-frame records
/// gated off), 2 = additionally capture + serialize Perfetto JSON after the
/// run (timed separately as export_seconds), 3 = full per-frame detail.
/// snap_path: also write the end-of-span capture (and report its size).
ScalePoint run_point(std::size_t n, unsigned threads, int obs_mode = 0,
                     DiscoveryPolicy discovery = {},
                     const std::string& snap_path = "") {
  net::Testbed bed(42, radio::Calibration::defaults(), threads);
  bed.set_discovery_policy(discovery);
  // Modes 1/2 measure the always-on profile (counters + lifecycle records,
  // per-frame records off); mode 3 is full per-frame detail.
  if (obs_mode > 0) {
    bed.enable_observability(/*ring_capacity=*/1 << 16,
                             /*detail=*/obs_mode == 3);
  }
  OmniNodeOptions node_opts;
  node_opts.manager.discovery = bed.discovery_policy();
  std::size_t side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<net::Device*> devices;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  devices.reserve(n);
  nodes.reserve(n);
  // Context receptions land on every shard concurrently; relaxed is enough
  // for a total.
  std::atomic<std::uint64_t> contexts{0};
  for (std::size_t i = 0; i < n; ++i) {
    double x = static_cast<double>(i % side) * kSpacingM;
    double y = static_cast<double>(i / side) * kSpacingM;
    devices.push_back(&bed.add_device("n" + std::to_string(i), {x, y}));
    nodes.push_back(
        std::make_unique<OmniNode>(*devices.back(), bed.mesh(), node_opts));
    nodes.back()->manager().request_context(
        [&contexts](const OmniAddress&, const Bytes&) {
          contexts.fetch_add(1, std::memory_order_relaxed);
        });
  }
  for (auto& node : nodes) {
    node->start();
    node->manager().add_context(ContextParams{}, Bytes{0x5c}, nullptr);
  }
  // Manager records ride along (digest-only peer tables at fleet scale —
  // same verification strength, bounded size).
  add_manager_snapshot_source(bed, nodes);

  auto t0 = std::chrono::steady_clock::now();
  bed.simulator().run_for(Duration::seconds(g_sim_seconds));
  auto t1 = std::chrono::steady_clock::now();

  ScalePoint p;
  capture_state(bed, "scale", snap_path, p);
  p.nodes = n;
  p.threads = threads;
  p.sim_seconds = g_sim_seconds;
  p.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  collect_engine(bed, p);
  p.events_per_sec =
      p.wall_seconds > 0 ? static_cast<double>(p.events) / p.wall_seconds : 0;
  p.contexts_received = contexts.load(std::memory_order_relaxed);
  p.min_peers = nodes.empty() ? 0 : SIZE_MAX;
  p.beacon_encodes = 0;
  double interval_sum_ms = 0;
  for (auto& node : nodes) {
    p.min_peers = std::min(p.min_peers, node->manager().peer_table().size());
    p.beacon_encodes += node->manager().stats().beacon_encodes;
    p.beacons_suppressed += node->manager().stats().beacons_suppressed;
    interval_sum_ms += static_cast<double>(
        node->manager().current_beacon_interval().as_millis());
  }
  if (!nodes.empty()) {
    p.mean_beacon_interval_ms =
        interval_sum_ms / static_cast<double>(nodes.size());
  }
  if (obs_mode > 0) {
    obs::Omniscope& scope = *bed.observability();
    p.trace_records = scope.recorder().total_written();
    p.trace_dropped = scope.recorder().dropped();
    if (obs_mode > 1) {
      auto e0 = std::chrono::steady_clock::now();
      obs::TraceCapture cap = obs::capture(scope);
      std::ostringstream json;
      obs::write_perfetto_json(json, cap);
      auto e1 = std::chrono::steady_clock::now();
      p.export_seconds = std::chrono::duration<double>(e1 - e0).count();
    }
  }
  return p;
}

/// City mode: `core` full-stack devices occupying a square block of the
/// lattice (same 25 m density the sweep measures, so their radio
/// neighborhoods match the plain `core`-node sweep point) inside a crowd of
/// world-only nodes filling the rest of the constant-density grid, with
/// deterministic churn walking a slice of the crowd between regions.
ScalePoint run_city(std::size_t n, std::size_t core, unsigned threads,
                    DiscoveryPolicy discovery = {},
                    const std::string& snap_path = "") {
  net::Testbed bed(42, radio::Calibration::defaults(), threads);
  bed.set_discovery_policy(discovery);
  OmniNodeOptions node_opts;
  node_opts.manager.discovery = bed.discovery_policy();
  std::size_t side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::size_t core_side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(core))));
  std::vector<net::Device*> devices;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  devices.reserve(core);
  nodes.reserve(core);
  std::vector<NodeId> movers;
  std::size_t crowd = 0;
  std::atomic<std::uint64_t> contexts{0};
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t col = i % side;
    std::size_t row = i / side;
    double x = static_cast<double>(col) * kSpacingM;
    double y = static_cast<double>(row) * kSpacingM;
    if (col < core_side && row < core_side && devices.size() < core) {
      devices.push_back(&bed.add_device("n" + std::to_string(i), {x, y}));
      nodes.push_back(
          std::make_unique<OmniNode>(*devices.back(), bed.mesh(), node_opts));
      nodes.back()->manager().request_context(
          [&contexts](const OmniAddress&, const Bytes&) {
            contexts.fetch_add(1, std::memory_order_relaxed);
          });
    } else {
      NodeId id = bed.add_crowd_node("c" + std::to_string(i), {x, y});
      // Every 16th crowd node wanders; the rest stand still.
      if (crowd++ % 16 == 0) movers.push_back(id);
    }
  }
  for (auto& node : nodes) {
    node->start();
    node->manager().add_context(ContextParams{}, Bytes{0x5c}, nullptr);
  }
  sim::CrowdChurn::Options churn_opts;
  churn_opts.area_min = {0, 0};
  double extent = static_cast<double>(side - 1) * kSpacingM;
  churn_opts.area_max = {extent, extent};
  churn_opts.per_tick = 200;
  sim::CrowdChurn churn(bed.world(), std::move(movers), churn_opts, 4242);
  churn.start();
  // The crowd dominates the capture, so its size measures the per-node cost
  // of the world rows; manager records are digest-only at this scale.
  add_manager_snapshot_source(bed, nodes);

  auto t0 = std::chrono::steady_clock::now();
  bed.simulator().run_for(Duration::seconds(g_sim_seconds));
  auto t1 = std::chrono::steady_clock::now();
  churn.stop();

  ScalePoint p;
  capture_state(bed, "city", snap_path, p);
  p.nodes = n;
  p.threads = threads;
  p.sim_seconds = g_sim_seconds;
  p.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  collect_engine(bed, p);
  p.events_per_sec =
      p.wall_seconds > 0 ? static_cast<double>(p.events) / p.wall_seconds : 0;
  p.contexts_received = contexts.load(std::memory_order_relaxed);
  p.min_peers = nodes.empty() ? 0 : SIZE_MAX;
  p.beacon_encodes = 0;
  double interval_sum_ms = 0;
  for (auto& node : nodes) {
    p.min_peers = std::min(p.min_peers, node->manager().peer_table().size());
    p.beacon_encodes += node->manager().stats().beacon_encodes;
    p.beacons_suppressed += node->manager().stats().beacons_suppressed;
    interval_sum_ms += static_cast<double>(
        node->manager().current_beacon_interval().as_millis());
  }
  if (!nodes.empty()) {
    p.mean_beacon_interval_ms =
        interval_sum_ms / static_cast<double>(nodes.size());
  }
  p.crowd_nodes = n - core;
  p.churn_moves = churn.moves_started();
  sim::World::MemoryStats ws = bed.world().memory_stats();
  p.world_bytes_per_node =
      static_cast<double>(ws.total()) /
      static_cast<double>(bed.world().node_count());
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> counts = {10, 50, 100, 250, 500, 1000, 10000};
  std::vector<std::size_t> explicit_counts;
  bool huge = false;
  bool smoke = false;
  DiscoveryPolicy sweep_policy;  // default: fixed 500 ms (paper cadence)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--huge") == 0) {
      huge = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--discovery=adaptive") == 0) {
      sweep_policy.mode = DiscoveryPolicy::Mode::kAdaptive;
    } else if (std::strcmp(argv[i], "--discovery=fixed") == 0) {
      sweep_policy.mode = DiscoveryPolicy::Mode::kFixed;
    } else {
      explicit_counts.push_back(
          static_cast<std::size_t>(std::atoll(argv[i])));
    }
  }
  if (!explicit_counts.empty()) counts = explicit_counts;
  // Smoke profile (CI): a short virtual-time slice on a reduced thread
  // sweep, no observability section — enough to exercise the 10k region
  // machinery, the determinism check, and the RSS budget inside a time box.
  if (smoke) g_sim_seconds = 5.0;
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};

  bench::print_heading("Simulator scale sweep (beaconing + engagement on)");
  bench::Table table({"nodes", "threads", "events", "wall s", "events/s",
                      "speedup", "peak heap", "min peers"});
  bench::BenchReport report("scale");
  report.set_schema_version(5);
  report.set_meta("sim_seconds", bench::fmt(g_sim_seconds, 0));
  report.set_meta("spacing_m", bench::fmt(kSpacingM, 0));
  report.set_meta("seed", "42");
  report.set_meta("discovery",
                  sweep_policy.mode == DiscoveryPolicy::Mode::kAdaptive
                      ? "adaptive"
                      : "fixed");
  report.set_meta("region_cells",
                  std::to_string(sim::World::kDefaultRegionCells));
  // Speedup numbers only mean something relative to the cores that were
  // actually available: on a 1-core box every thread count shares one core
  // and speedup_vs_1t measures pure engine overhead.
  report.set_meta("hardware_threads",
                  std::to_string(std::thread::hardware_concurrency()));

  // City section first (see file comment: ru_maxrss is process-monotonic).
  // The city runs once per discovery policy — fixed (the paper's 500 ms
  // cadence) then adaptive — each across the thread sweep with a state
  // comparison; adaptive must then cut total events >= 25% vs fixed.
  if (huge) {
    constexpr std::size_t kCityNodes = 100000;
    constexpr std::size_t kCityCore = 1000;
    constexpr double kCityAdaptiveEventCut = 0.25;
    bench::print_heading("City (100k nodes: 1k devices + 99k crowd, churn)");
    std::uint64_t fixed_events = 0, adaptive_events = 0;
    for (int adaptive = 0; adaptive <= 1; ++adaptive) {
      DiscoveryPolicy city_policy;
      if (adaptive != 0) city_policy.mode = DiscoveryPolicy::Mode::kAdaptive;
      const char* policy_name = adaptive != 0 ? "adaptive" : "fixed";
      sim::Snapshot state_1t;
      std::uint64_t migrations_1t = 0;
      for (unsigned threads : {1u, 2u, 8u}) {
        // The 1-thread fixed-policy run leaves scale_city.osnap behind for
        // `omnisnap verify` and the per-node size gate.
        const std::string city_snap =
            (adaptive == 0 && threads == 1) ? "scale_city.osnap" : "";
        ScalePoint p =
            run_city(kCityNodes, kCityCore, threads, city_policy, city_snap);
        if (p.snapshot_bytes > 0) {
          const double budget = kSnapshotFullStackBudget *
                                    static_cast<double>(kCityCore) +
                                kSnapshotCrowdBudget *
                                    static_cast<double>(p.crowd_nodes);
          std::printf("  city snapshot: %llu bytes (budget %.0f)\n",
                      static_cast<unsigned long long>(p.snapshot_bytes),
                      budget);
          if (static_cast<double>(p.snapshot_bytes) > budget) {
            std::fprintf(stderr,
                         "CITY SNAPSHOT BUDGET EXCEEDED: %llu bytes > %.0f "
                         "(%zu full-stack x %.0f + %llu crowd x %.0f)\n",
                         static_cast<unsigned long long>(p.snapshot_bytes),
                         budget, kCityCore, kSnapshotFullStackBudget,
                         static_cast<unsigned long long>(p.crowd_nodes),
                         kSnapshotCrowdBudget);
            return 1;
          }
        }
        if (threads == 1) {
          state_1t = p.state;
          migrations_1t = p.migrations;
          (adaptive != 0 ? adaptive_events : fixed_events) = p.events;
        }
        const std::string diff = sim::diff_snapshots(
            state_1t, p.state, /*ignore_threads=*/true);
        // World migrations are counted outside the capture.
        if (!diff.empty() || p.migrations != migrations_1t) {
          std::fprintf(stderr,
                       "CITY DETERMINISM VIOLATION (%s) at %u threads: "
                       "migrations %llu vs %llu; %s\n",
                       policy_name, threads,
                       static_cast<unsigned long long>(p.migrations),
                       static_cast<unsigned long long>(migrations_1t),
                       diff.c_str());
          return 1;
        }
        double rss_per_node = static_cast<double>(p.peak_rss_kb) /
                              static_cast<double>(p.nodes);
        if (!kSanitizedBuild && rss_per_node > kCityRssBudgetKb) {
          std::fprintf(stderr,
                       "CITY RSS BUDGET EXCEEDED: %.2f KB/node > %.2f\n",
                       rss_per_node, kCityRssBudgetKb);
          return 1;
        }
        if (p.world_bytes_per_node > kWorldBytesBudget) {
          std::fprintf(stderr,
                       "WORLD BYTES BUDGET EXCEEDED: %.1f B/node > %.0f\n",
                       p.world_bytes_per_node, kWorldBytesBudget);
          return 1;
        }
        report.add_row()
            .field("section", std::string("city"))
            .field("discovery", std::string(policy_name))
            .field("nodes", static_cast<std::uint64_t>(p.nodes))
            .field("crowd_nodes", p.crowd_nodes)
            .field("threads", static_cast<std::uint64_t>(p.threads))
            .field("sim_seconds", p.sim_seconds)
            .field("events", p.events)
            .field("wall_seconds", p.wall_seconds)
            .field("events_per_sec", p.events_per_sec)
            .field("windows", p.windows)
            .field("global_events", p.global_events)
            .field("mailbox_posts", p.mailbox_posts)
            .field("regions", p.regions)
            .field("migrations", p.migrations)
            .field("cross_region_mailbox_posts", p.cross_region_mailbox_posts)
            .field("churn_moves", p.churn_moves)
            .field("contexts_received", p.contexts_received)
            .field("min_peers", static_cast<std::uint64_t>(p.min_peers))
            .field("beacons_suppressed", p.beacons_suppressed)
            .field("mean_beacon_interval_ms", p.mean_beacon_interval_ms)
            .field("peak_rss_kb", p.peak_rss_kb)
            .field("world_bytes_per_node", p.world_bytes_per_node)
            .field("snapshot_bytes", p.snapshot_bytes)
            .field("hardware_threads",
                   static_cast<std::uint64_t>(
                       std::thread::hardware_concurrency()));
        std::printf("  %6zu nodes, %u threads, %-8s: %8.3f s wall, %10.0f "
                    "events/s  [regions %llu, migrations %llu, xposts %llu, "
                    "suppressed %llu, rss %.2f KB/node, world %.0f B/node]\n",
                    p.nodes, p.threads, policy_name, p.wall_seconds,
                    p.events_per_sec,
                    static_cast<unsigned long long>(p.regions),
                    static_cast<unsigned long long>(p.migrations),
                    static_cast<unsigned long long>(
                        p.cross_region_mailbox_posts),
                    static_cast<unsigned long long>(p.beacons_suppressed),
                    rss_per_node, p.world_bytes_per_node);
      }
    }
    const double cut =
        fixed_events > 0
            ? 1.0 - static_cast<double>(adaptive_events) /
                        static_cast<double>(fixed_events)
            : 0.0;
    std::printf("  adaptive event cut vs fixed: %.1f%% (gate >= %.0f%%)\n",
                cut * 100.0, kCityAdaptiveEventCut * 100.0);
    if (cut < kCityAdaptiveEventCut) {
      std::fprintf(stderr,
                   "CITY ADAPTIVE EVENT CUT TOO SMALL: %.1f%% < %.0f%% "
                   "(%llu -> %llu events)\n",
                   cut * 100.0, kCityAdaptiveEventCut * 100.0,
                   static_cast<unsigned long long>(fixed_events),
                   static_cast<unsigned long long>(adaptive_events));
      return 1;
    }
  }

  for (std::size_t n : counts) {
    double wall_1t = 0;
    sim::Snapshot state_1t;
    // At scale every thread count also writes its capture, so the
    // cross-thread comparison can be repeated offline with omnisnap.
    const bool snap_here = smoke || n >= 10000;
    for (unsigned threads : thread_counts) {
      const std::string snap_file =
          snap_here ? "scale_" + (smoke ? "smoke" : std::to_string(n)) +
                          "_t" + std::to_string(threads) + ".osnap"
                    : std::string();
      ScalePoint p =
          run_point(n, threads, /*obs_mode=*/0, sweep_policy, snap_file);
      if (snap_here) {
        const double per_node = static_cast<double>(p.snapshot_bytes) /
                                static_cast<double>(n);
        std::printf("  %5zu nodes snapshot: %llu bytes (%.0f B/node, budget "
                    "%.0f) -> %s\n",
                    n, static_cast<unsigned long long>(p.snapshot_bytes),
                    per_node, kSnapshotFullStackBudget, snap_file.c_str());
        if (n >= 10000 && per_node > kSnapshotFullStackBudget) {
          std::fprintf(stderr,
                       "SNAPSHOT BUDGET EXCEEDED at %zu nodes: %.0f B/node "
                       "> %.0f\n",
                       n, per_node, kSnapshotFullStackBudget);
          return 1;
        }
      }
      if (threads == 1) {
        wall_1t = p.wall_seconds;
        state_1t = p.state;
      }
      // Determinism: every thread count must reach the same state.
      const std::string diff =
          sim::diff_snapshots(state_1t, p.state, /*ignore_threads=*/true);
      if (!diff.empty()) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at %zu nodes, %u threads: %s\n",
                     n, threads, diff.c_str());
        return 1;
      }
      // RSS budget: full-stack devices are allowed kFullStackRssBudgetKb
      // each, policed where the fixed process baseline stops mattering.
      if (!kSanitizedBuild && n >= 10000) {
        double rss_per_node = static_cast<double>(p.peak_rss_kb) /
                              static_cast<double>(n);
        if (rss_per_node > kFullStackRssBudgetKb) {
          std::fprintf(stderr,
                       "RSS BUDGET EXCEEDED at %zu nodes: %.2f KB/node > "
                       "%.1f\n",
                       n, rss_per_node, kFullStackRssBudgetKb);
          return 1;
        }
      }
      double speedup = p.wall_seconds > 0 ? wall_1t / p.wall_seconds : 0;
      table.add_row({std::to_string(p.nodes), std::to_string(p.threads),
                     std::to_string(p.events), bench::fmt(p.wall_seconds, 3),
                     bench::fmt(p.events_per_sec, 0), bench::fmt(speedup, 2),
                     std::to_string(p.peak_pending_events),
                     std::to_string(p.min_peers)});
      report.add_row()
          .field("nodes", static_cast<std::uint64_t>(p.nodes))
          .field("threads", static_cast<std::uint64_t>(p.threads))
          .field("sim_seconds", p.sim_seconds)
          .field("events", p.events)
          .field("wall_seconds", p.wall_seconds)
          .field("events_per_sec", p.events_per_sec)
          .field("speedup_vs_1t", speedup)
          .field("peak_pending_events", p.peak_pending_events)
          .field("windows", p.windows)
          .field("global_events", p.global_events)
          .field("mailbox_posts", p.mailbox_posts)
          .field("regions", p.regions)
          .field("migrations", p.migrations)
          .field("cross_region_mailbox_posts", p.cross_region_mailbox_posts)
          .field("contexts_received", p.contexts_received)
          .field("min_peers", static_cast<std::uint64_t>(p.min_peers))
          .field("beacon_encodes", p.beacon_encodes)
          .field("beacons_suppressed", p.beacons_suppressed)
          .field("mean_beacon_interval_ms", p.mean_beacon_interval_ms)
          .field("peak_rss_kb", p.peak_rss_kb)
          .field("snapshot_bytes", p.snapshot_bytes)
          // Duplicated from meta so a row extracted on its own still says
          // how many cores its speedup_vs_1t was measured against.
          .field("hardware_threads",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));
      std::printf("  %5zu nodes, %u threads: %8.3f s wall, %10.0f events/s"
                  " (%.2fx)  [windows %llu, global %llu, posts %llu, "
                  "xposts %llu, regions %llu]\n",
                  p.nodes, p.threads, p.wall_seconds, p.events_per_sec,
                  speedup, static_cast<unsigned long long>(p.windows),
                  static_cast<unsigned long long>(p.global_events),
                  static_cast<unsigned long long>(p.mailbox_posts),
                  static_cast<unsigned long long>(
                      p.cross_region_mailbox_posts),
                  static_cast<unsigned long long>(p.regions));
    }
  }
  // Observability overhead: the same workload with the scope off, with the
  // flight recorder + metrics live, and with a Perfetto serialization after
  // the run. Rows carry section="obs_overhead" in BENCH_scale.json (schema
  // in README.md). Capped at 1000 nodes — the obs delta is per-event, and
  // five repetitions of a 10k run would dominate the bench for no extra
  // signal. Skipped in --smoke (CI time box).
  if (!smoke) {
    std::size_t obs_nodes = counts.back();
    for (std::size_t n : counts) {
      if (n <= 1000 && n > (obs_nodes > 1000 ? 0 : obs_nodes)) obs_nodes = n;
    }
    if (obs_nodes > 1000) obs_nodes = 1000;
    bench::print_heading("Observability overhead");
    const char* kModes[] = {"off", "ring", "ring_export", "ring_detail"};
    double wall_off = 0;
    for (int mode = 0; mode < 4; ++mode) {
      // Best of five: these points run ~0.1 s of wall time each, where
      // scheduler noise swamps a single-digit-percent effect.
      ScalePoint p = run_point(obs_nodes, 1, mode);
      for (int rep = 1; rep < 5; ++rep) {
        ScalePoint q = run_point(obs_nodes, 1, mode);
        if (q.wall_seconds < p.wall_seconds) p = q;
      }
      if (mode == 0) wall_off = p.wall_seconds;
      double overhead =
          wall_off > 0 ? p.wall_seconds / wall_off - 1.0 : 0.0;
      report.add_row()
          .field("section", std::string("obs_overhead"))
          .field("mode", std::string(kModes[mode]))
          .field("nodes", static_cast<std::uint64_t>(obs_nodes))
          .field("threads", static_cast<std::uint64_t>(1))
          .field("sim_seconds", p.sim_seconds)
          .field("wall_seconds", p.wall_seconds)
          .field("overhead_vs_off", overhead)
          .field("trace_records", p.trace_records)
          .field("trace_dropped", p.trace_dropped)
          .field("export_seconds", p.export_seconds);
      std::printf("  %-12s %8.3f s wall (%+5.1f%%)  [records %llu, dropped "
                  "%llu, export %.3f s]\n",
                  kModes[mode], p.wall_seconds, overhead * 100.0,
                  static_cast<unsigned long long>(p.trace_records),
                  static_cast<unsigned long long>(p.trace_dropped),
                  p.export_seconds);
    }
  }

  std::printf("\n");
  table.print();
  report.write_file();
  return 0;
}
