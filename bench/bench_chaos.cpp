// bench_chaos: resilience metrics for the fault-injection engine and the
// self-healing manager.
//
// Runs the chaos-soak world (a 12-node neighborhood under background
// loss/corruption/latency, WiFi and BLE flap windows, two crash+restart
// cycles, and a transient partition) once per thread count and reports:
//
//   * delivery_ratio          successful sends / sends issued
//   * mean_success_latency_ms mean issue-to-terminal latency of the sends
//                             that succeeded (failover cost shows up here)
//   * ops_leaked              entries left in the manager op tables at the
//                             end of the run (must be 0)
//   * beacon_downtime_s       per-node-summed virtual seconds the BLE
//                             address beacon was down, sampled at 250 ms
//   * digest                  snapshot_digest of the end-of-run state
//                             capture (sim + managers) without its
//                             manifest; the bench exits 1 if any thread
//                             count's capture differs from the first one's
//
// Writes BENCH_chaos.json (one row per thread count) so the resilience
// numbers feed the trajectory alongside BENCH_scale.json.
//
//   $ ./bench/bench_chaos            # threads 1, 2, 8
//   $ ./bench/bench_chaos 1 4        # explicit thread counts
//   $ ./bench/bench_chaos 1 --trace chaos.json
//       # additionally record a flight-recorder trace of the first run and
//       # export it as Perfetto JSON (fault windows as labelled spans);
//       # open at https://ui.perfetto.dev. Every run then attaches the
//       # scope, so every capture (and the digest) holds the metrics section
//   $ ./bench/bench_chaos --checkpoint ckpts
//       # also capture the full run state every 10 virtual seconds into
//       # ckpts/t<N>/ and compare each same-instant pair with the first
//       # thread count's; the first divergent pair names its 10 s window
//       # and the omnisnap command that reproduces the comparison offline
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
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
#include "sim/snapshot.h"

namespace {

using namespace omni;

constexpr int kNodes = 12;
constexpr std::uint64_t kSeed = 20260805;
constexpr double kSimSeconds = 60.0;
constexpr double kBeaconSamplePeriodS = 0.25;
// Checkpoint cadence for --checkpoint. Checkpoint capture is itself an
// event, so only runs with the same cadence compare.
constexpr double kCheckpointPeriodS = 10.0;

struct ChaosPoint {
  unsigned threads = 1;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  int ops = 0;
  int sends_ok = 0;
  int sends_failed = 0;
  double mean_success_latency_ms = 0;
  std::size_t ops_leaked = 0;
  double beacon_downtime_s = 0;
  std::uint64_t deadline_failovers = 0;
  std::uint64_t beacon_rearms = 0;
  std::uint64_t quarantines = 0;
  sim::FaultPlan::Stats fault_stats;
  /// End-of-run state capture: the cross-thread determinism oracle.
  sim::Snapshot state;
  std::vector<std::string> checkpoints;
};

ChaosPoint run_point(unsigned threads, bool observe,
                     const std::string& trace_path,
                     const std::string& ckpt_dir) {
  net::Testbed bed(kSeed, radio::Calibration::defaults(), threads);
  // A traced sweep attaches the scope at every thread count so every
  // capture holds the metrics section; only the exported run needs a ring
  // deep enough for the whole minute.
  if (observe) {
    bed.enable_observability(trace_path.empty() ? 1 << 12 : 1 << 20);
  }
  std::vector<net::Device*> devices;
  std::vector<std::unique_ptr<OmniNode>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    sim::Vec2 pos{15.0 * (i % 6), 20.0 * (i / 6)};
    devices.push_back(&bed.add_device("n" + std::to_string(i), pos));
    nodes.push_back(std::make_unique<OmniNode>(*devices.back(), bed.mesh()));
  }

  auto at = [](double s) {
    return TimePoint::origin() + Duration::seconds(s);
  };
  // Same composite schedule as tests/test_chaos_soak.cpp so the bench and
  // the CI gate measure the same world.
  auto& plan = bed.fault_plan();
  sim::FaultPlan::LinkFault noisy;
  noisy.loss = 0.15;
  noisy.corrupt = 0.01;
  noisy.extra_latency = Duration::millis(2);
  plan.add_link_fault(noisy);
  sim::FaultPlan::Blackout wifi_flap;
  wifi_flap.node = devices[2]->node();
  wifi_flap.radio = sim::FaultRadio::kWifi;
  wifi_flap.start = at(10);
  wifi_flap.end = at(30);
  wifi_flap.period = Duration::seconds(3);
  wifi_flap.off_fraction = 0.5;
  plan.add_blackout(wifi_flap);
  sim::FaultPlan::Blackout ble_flap;
  ble_flap.node = devices[5]->node();
  ble_flap.radio = sim::FaultRadio::kBle;
  ble_flap.start = at(15);
  ble_flap.end = at(35);
  ble_flap.period = Duration::seconds(4);
  ble_flap.off_fraction = 0.4;
  plan.add_blackout(ble_flap);
  sim::FaultPlan::Crash crash1;
  crash1.node = devices[3]->node();
  crash1.at = at(12);
  crash1.restart = at(20);
  plan.add_crash(crash1);
  sim::FaultPlan::Crash crash2;
  crash2.node = devices[8]->node();
  crash2.at = at(25);
  crash2.restart = at(33);
  plan.add_crash(crash2);
  sim::FaultPlan::Partition split;
  split.start = at(20);
  split.end = at(35);
  split.a = 1.0;
  split.b = 0.0;
  split.c = 40.0;
  plan.add_partition(split);
  bed.schedule_faults();

  add_manager_snapshot_source(bed, nodes);
  if (!ckpt_dir.empty()) {
    bed.checkpoint_every(Duration::seconds(kCheckpointPeriodS), ckpt_dir);
  }

  for (auto& n : nodes) n->start();

  // Ring traffic, two staggered sends per node. Completion callbacks fire
  // on each sender's owner context (concurrently across shards), so each
  // op records into its own pre-sized slot and shared tallies are atomic.
  struct OpRecord {
    TimePoint issued;
    TimePoint completed;
    bool ok = false;
    bool done = false;
  };
  std::vector<OpRecord> records(static_cast<std::size_t>(kNodes) * 2);
  std::atomic<int> sends_ok{0};
  std::atomic<int> sends_failed{0};
  int ops = 0;
  auto& sim = bed.simulator();
  for (int i = 0; i < kNodes; ++i) {
    OmniManager& mgr = nodes[i]->manager();
    OmniAddress dest = nodes[(i + 1) % kNodes]->address();
    for (int round = 0; round < 2; ++round) {
      std::size_t slot = static_cast<std::size_t>(i) * 2 + round;
      double when = (round == 0 ? 8.0 : 28.0) + 1.5 * i;
      std::size_t bytes =
          round == 0 ? ((i % 3 == 0) ? 150'000 : 60 + i) : std::size_t{96};
      sim.at(at(when), [&records, &sim, &sends_ok, &sends_failed, &ops, slot,
                        bytes, dest, &mgr] {
        ++ops;
        records[slot].issued = sim.now();
        mgr.send_data({dest}, Bytes(bytes, 0xC4),
                      [&records, &sim, &sends_ok, &sends_failed,
                       slot](StatusCode code, const ResponseInfo&) {
                        OpRecord& rec = records[slot];
                        rec.completed = sim.now();
                        rec.ok = code == StatusCode::kSendDataSuccess;
                        rec.done = true;
                        if (rec.ok) {
                          sends_ok.fetch_add(1, std::memory_order_relaxed);
                        } else {
                          sends_failed.fetch_add(1, std::memory_order_relaxed);
                        }
                      });
      });
    }
  }

  // Beacon-downtime sampler: global-owner events are serialized against
  // every shard, so reading manager state from here is race-free.
  std::uint64_t beacon_down_samples = 0;
  const int total_samples =
      static_cast<int>(kSimSeconds / kBeaconSamplePeriodS);
  for (int s = 1; s <= total_samples; ++s) {
    sim.at(at(s * kBeaconSamplePeriodS), [&] {
      for (auto& n : nodes) {
        if (!n->manager().technology_beaconing(Technology::kBle)) {
          ++beacon_down_samples;
        }
      }
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  sim.run_for(Duration::seconds(kSimSeconds));
  auto t1 = std::chrono::steady_clock::now();

  ChaosPoint p;
  p.threads = threads;
  p.events = sim.executed_events();
  p.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  p.ops = ops;
  p.sends_ok = sends_ok.load(std::memory_order_relaxed);
  p.sends_failed = sends_failed.load(std::memory_order_relaxed);
  double latency_sum_ms = 0;
  for (const OpRecord& rec : records) {
    if (rec.done && rec.ok) {
      latency_sum_ms += (rec.completed - rec.issued).as_millis();
    }
  }
  p.mean_success_latency_ms =
      p.sends_ok > 0 ? latency_sum_ms / p.sends_ok : 0;
  p.beacon_downtime_s =
      static_cast<double>(beacon_down_samples) * kBeaconSamplePeriodS;

  for (auto& n : nodes) {
    const ManagerStats& s = n->manager().stats();
    p.ops_leaked += n->manager().pending_data_count() +
                    n->manager().data_attempt_count() +
                    n->manager().context_attempt_count();
    p.deadline_failovers += s.deadline_failovers;
    p.beacon_rearms += s.beacon_rearms;
    p.quarantines += s.quarantines;
  }
  p.fault_stats = plan.stats();
  p.state = bed.capture_snapshot();
  // The manifest records the capturing thread count; the digest covers
  // everything else, so it is one value at every thread count.
  sim::Snapshot body = p.state;
  std::erase_if(body.sections, [](const sim::SnapshotSection& sec) {
    return sec.id == sim::kSecManifest;
  });
  p.digest = sim::snapshot_digest(body);
  p.checkpoints = bed.checkpoints();

  if (!trace_path.empty()) {
    obs::TraceCapture cap = obs::capture(*bed.observability());
    if (obs::write_perfetto_json(trace_path, cap, bed.export_options())) {
      std::printf("  wrote %s (%zu records, %llu dropped) — open at "
                  "https://ui.perfetto.dev\n",
                  trace_path.c_str(), cap.records.size(),
                  static_cast<unsigned long long>(cap.dropped));
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
    }
  }

  for (auto& n : nodes) n->stop();
  sim.run_for(Duration::seconds(1));
  return p;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Compare two runs' checkpoint streams pair by pair. The first pair whose
// state differs pins the divergence to the 10 s window it closes; report it
// with the omnisnap command that reproduces the comparison offline.
bool checkpoints_match(const ChaosPoint& base, const ChaosPoint& p) {
  if (base.checkpoints.size() != p.checkpoints.size()) {
    std::fprintf(stderr, "CHECKPOINT COUNT: %zu at %u threads vs %zu at %u\n",
                 p.checkpoints.size(), p.threads, base.checkpoints.size(),
                 base.threads);
    return false;
  }
  for (std::size_t i = 0; i < p.checkpoints.size(); ++i) {
    auto a = sim::read_snapshot_file(base.checkpoints[i]);
    auto b = sim::read_snapshot_file(p.checkpoints[i]);
    if (!a.is_ok() || !b.is_ok()) {
      std::fprintf(stderr, "CHECKPOINT UNREADABLE: %s\n",
                   (!a.is_ok() ? a : b).error_message().c_str());
      return false;
    }
    const std::string diff =
        sim::diff_snapshots(a.value(), b.value(), /*ignore_threads=*/true);
    if (!diff.empty()) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION in (%.0fs, %.0fs] at %u threads: "
                   "%s\nreproduce offline with:\n  omnisnap diff --state %s "
                   "%s\n",
                   kCheckpointPeriodS * static_cast<double>(i),
                   kCheckpointPeriodS * static_cast<double>(i + 1), p.threads,
                   diff.c_str(), base.checkpoints[i].c_str(),
                   p.checkpoints[i].c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> thread_counts = {1, 2, 8};
  std::string trace_path;
  std::string ckpt_root;
  std::vector<unsigned> explicit_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::string(argv[i]) == "--checkpoint" && i + 1 < argc) {
      ckpt_root = argv[++i];
    } else {
      explicit_counts.push_back(static_cast<unsigned>(std::atoi(argv[i])));
    }
  }
  if (!explicit_counts.empty()) thread_counts = explicit_counts;

  bench::print_heading("Chaos soak (faults + self-healing, thread sweep)");
  bench::Table table({"threads", "delivery", "latency ms", "leaked",
                      "beacon down s", "failovers", "rearms", "digest"});
  bench::BenchReport report("chaos");
  report.set_meta("nodes", std::to_string(kNodes));
  report.set_meta("sim_seconds", bench::fmt(kSimSeconds, 0));
  report.set_meta("seed", std::to_string(kSeed));
  report.set_meta("beacon_sample_period_s",
                  bench::fmt(kBeaconSamplePeriodS, 2));
  report.set_meta("hardware_threads",
                  std::to_string(std::thread::hardware_concurrency()));

  bool ok = true;
  ChaosPoint baseline;
  for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const unsigned threads = thread_counts[ti];
    // The trace rides the first run only; instrumentation does not change
    // the run, so the traced run still anchors the comparison.
    const std::string ckpt_dir =
        ckpt_root.empty() ? ""
                          : ckpt_root + "/t" + std::to_string(threads);
    ChaosPoint p = run_point(threads, !trace_path.empty(),
                             ti == 0 ? trace_path : "", ckpt_dir);
    if (ti == 0) {
      baseline = p;
    } else {
      const std::string diff = sim::diff_snapshots(
          baseline.state, p.state, /*ignore_threads=*/true);
      if (!diff.empty()) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: end-of-run state at %u threads "
                     "vs %u: %s\n",
                     threads, baseline.threads, diff.c_str());
        ok = false;
      }
      // Bench-side tallies the capture does not hold.
      if (p.sends_ok != baseline.sends_ok ||
          p.sends_failed != baseline.sends_failed ||
          p.beacon_downtime_s != baseline.beacon_downtime_s) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: sends %d/%d, beacon down %.2f s "
                     "at %u threads vs %d/%d, %.2f s at %u\n",
                     p.sends_ok, p.sends_failed, p.beacon_downtime_s, threads,
                     baseline.sends_ok, baseline.sends_failed,
                     baseline.beacon_downtime_s, baseline.threads);
        ok = false;
      }
      if (!checkpoints_match(baseline, p)) ok = false;
    }
    if (p.ops_leaked != 0) {
      std::fprintf(stderr, "LEAK: %zu op-table entries left at %u threads\n",
                   p.ops_leaked, threads);
      ok = false;
    }
    double delivery =
        p.ops > 0 ? static_cast<double>(p.sends_ok) / p.ops : 0;
    table.add_row({std::to_string(p.threads), bench::fmt(delivery, 3),
                   bench::fmt(p.mean_success_latency_ms, 1),
                   std::to_string(p.ops_leaked),
                   bench::fmt(p.beacon_downtime_s, 2),
                   std::to_string(p.deadline_failovers),
                   std::to_string(p.beacon_rearms), hex64(p.digest)});
    report.add_row()
        .field("threads", static_cast<std::uint64_t>(p.threads))
        .field("sim_seconds", kSimSeconds)
        .field("wall_seconds", p.wall_seconds)
        .field("events", p.events)
        .field("ops", static_cast<std::uint64_t>(p.ops))
        .field("sends_ok", static_cast<std::uint64_t>(p.sends_ok))
        .field("sends_failed", static_cast<std::uint64_t>(p.sends_failed))
        .field("delivery_ratio", delivery)
        .field("mean_success_latency_ms", p.mean_success_latency_ms)
        .field("ops_leaked", static_cast<std::uint64_t>(p.ops_leaked))
        .field("beacon_downtime_s", p.beacon_downtime_s)
        .field("deadline_failovers", p.deadline_failovers)
        .field("beacon_rearms", p.beacon_rearms)
        .field("quarantines", p.quarantines)
        .field("fault_drops", p.fault_stats.drops)
        .field("fault_corruptions", p.fault_stats.corruptions)
        .field("fault_delays", p.fault_stats.delays)
        .field("fault_partition_drops", p.fault_stats.partition_drops)
        .field("digest", hex64(p.digest));
    std::printf("  %u threads: delivery %.3f, mean ok-latency %.1f ms, "
                "%zu leaked, beacon down %.2f s, digest %s\n",
                p.threads, delivery, p.mean_success_latency_ms, p.ops_leaked,
                p.beacon_downtime_s, hex64(p.digest).c_str());
  }

  std::printf("\n");
  table.print();
  report.write_file();
  return ok ? 0 : 1;
}
