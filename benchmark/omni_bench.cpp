// omni_bench: the repository benchmark driver.
//
// One invocation runs one workload in its own process:
//
//   omni_bench --workload W --seed S --seconds N [--trace] [--out DIR]
//
// The timed part repeats the workload in-process, on one thread, until N
// seconds of host time have passed (a warm-up rep, then at least kMinReps)
// and reports the median of each host time, scaled to a reference host
// speed that a fixed gauge measures between reps. Every simulated number must
// repeat exactly across those reps. With --trace the driver then runs one
// extra traced rep (Omniscope attached after the devices are added, a
// benchmark-owned barrier hook timing every window, post-run world probes)
// and re-runs the workload at kRerunThreads, and reports the per-layer
// metrics instead of the end-to-end ones.
//
// Every layer is measured from outside: the driver times its own calls into
// public APIs (Testbed, add_device, OmniNode, start, Simulator::run_for,
// World::neighbors) and reads public counters. The last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// code is 1 when the correctness gate fails. benchmark/README.md documents
// the workloads and every metric.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/disseminate.h"
#include "baselines/omni_stack.h"
#include "common/result.h"
#include "net/infra.h"
#include "net/testbed.h"
#include "obs/omniscope.h"
#include "omni/omni_node.h"
#include "sim/fault_plan.h"
#include "sim/mobility.h"

namespace {

using namespace omni;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workloads -------------------------------------------------------------

enum class Kind { kGrid, kCity, kTraffic, kSwarm };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t world_nodes;  ///< devices plus crowd nodes
  std::size_t devices;      ///< full-stack devices
  double sim_seconds;
  bool rerun;  ///< the traced run also runs it at kRerunThreads
};

// Why each workload exists is in README.md. Every timed run uses one thread:
// on a shared 4-core host the slowest core sets every window barrier, so a
// 4-thread run time follows the other tenants' load (README.md, host
// noise). The traced re-run measures 4 threads instead. Swarm has no
// re-run: its mock infrastructure network is shared by every device and is
// only used single-threaded anywhere in the repository.
constexpr Workload kWorkloads[] = {
    {"beacon_grid_10k", Kind::kGrid, 10000, 10000, 30.0, true},
    {"city_100k", Kind::kCity, 100000, 1000, 600.0, true},
    {"ops_traffic_1k", Kind::kTraffic, 1000, 1000, 60.0, true},
    {"swarm_12", Kind::kSwarm, 12, 12, 400.0, false},
};

constexpr double kSpacingM = 25.0;
constexpr std::size_t kCityCore = 1000;
constexpr int kMinReps = 3;
// Shards of the traced re-run, and of the imbalance metric.
constexpr unsigned kRerunThreads = 4;

// ops_traffic_1k: every device sends every kSendPeriodS, from kFirstSendS
// plus a seeded phase, until kLastSendS; the run then drains the last
// deadlines. One send in kBulkEvery carries kBulkBytes, the rest kSmallBytes.
constexpr double kSendPeriodS = 2.0;
constexpr double kFirstSendS = 5.0;
constexpr double kLastSendS = 55.0;
constexpr std::size_t kSmallBytes = 64;
constexpr std::size_t kBulkBytes = 20000;
constexpr std::uint64_t kBulkEvery = 4;

/// splitmix64 finalizer: every seeded benchmark input is a stateless hash of
/// (seed, stream, index), so inputs do not depend on generation order.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return mix64(seed ^ mix64((stream << 40) ^ i));
}

/// Node placement plus the benchmark's own geometric oracle of which
/// devices are in BLE range of each other. Independent of the seed, so it
/// is built once per process.
struct Layout {
  std::vector<sim::Vec2> pos;             ///< every world node, admission order
  std::vector<bool> is_device;            ///< per world node
  std::vector<std::size_t> device_world;  ///< device index -> world index
  std::vector<std::size_t> movers;        ///< churning crowd nodes (city)
  std::vector<std::vector<std::uint32_t>> in_range;  ///< per device, ascending
  std::size_t pairs = 0;                  ///< sum of in_range sizes
  double extent_m = 0;                    ///< side of the square area
};

Layout make_layout(const Workload& w, double range_m) {
  Layout l;
  l.pos.reserve(w.world_nodes);
  l.is_device.reserve(w.world_nodes);
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(w.world_nodes))));
  const auto core_side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(kCityCore))));
  l.extent_m = static_cast<double>(side - 1) * kSpacingM;
  std::size_t crowd = 0;
  for (std::size_t i = 0; i < w.world_nodes; ++i) {
    sim::Vec2 p;
    bool device = true;
    if (w.kind == Kind::kSwarm) {
      p = {10.0 * static_cast<double>(i), 0.0};
    } else {
      const std::size_t col = i % side;
      const std::size_t row = i / side;
      p = {static_cast<double>(col) * kSpacingM,
           static_cast<double>(row) * kSpacingM};
      if (w.kind == Kind::kCity) {
        device = col < core_side && row < core_side &&
                 l.device_world.size() < kCityCore;
        // Every 16th crowd node wanders; the rest stand still.
        if (!device && crowd++ % 16 == 0) l.movers.push_back(i);
      }
    }
    l.pos.push_back(p);
    l.is_device.push_back(device);
    if (device) l.device_world.push_back(i);
  }
  // Sweep over devices sorted by x: only pairs within range_m in x are
  // candidates, so the oracle stays O(n * column height).
  const std::size_t n = l.device_world.size();
  std::vector<std::uint32_t> by_x(n);
  for (std::size_t d = 0; d < n; ++d) by_x[d] = static_cast<std::uint32_t>(d);
  auto x_of = [&](std::uint32_t d) { return l.pos[l.device_world[d]].x; };
  std::stable_sort(by_x.begin(), by_x.end(), [&](auto a, auto b) {
    return x_of(a) < x_of(b);
  });
  l.in_range.assign(n, {});
  for (std::size_t a = 0; a < n; ++a) {
    const sim::Vec2 pa = l.pos[l.device_world[by_x[a]]];
    for (std::size_t b = a + 1; b < n; ++b) {
      const sim::Vec2 pb = l.pos[l.device_world[by_x[b]]];
      if (pb.x - pa.x > range_m) break;
      if (sim::Vec2::distance(pa, pb) <= range_m) {
        l.in_range[by_x[a]].push_back(by_x[b]);
        l.in_range[by_x[b]].push_back(by_x[a]);
      }
    }
  }
  for (auto& v : l.in_range) {
    std::sort(v.begin(), v.end());
    l.pairs += v.size();
  }
  return l;
}

// --- One rep ---------------------------------------------------------------

/// Everything simulated about one rep. Each field must repeat exactly
/// across reps; the fields marked thread-independent must also match a run
/// at another thread count.
struct Outcome {
  // Thread-independent.
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t global_events = 0;
  std::uint64_t mailbox_posts = 0;
  double energy_ma = 0;
  double peer_coverage = 0;
  std::int64_t latency_p50_us = 0;
  double latency_tail_us = 0;  ///< mean of the slowest 1% (at least one op)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bad_callbacks = 0;   ///< ops with zero or several callbacks
  std::uint64_t stray_contexts = 0;  ///< contexts from out-of-range senders
  std::uint64_t ops_leaked = 0;
  std::uint64_t ble_delivered = 0;
  std::uint64_t beacons_received = 0;
  std::uint64_t contexts_received = 0;
  std::uint64_t decode_skips = 0;
  std::uint64_t beacon_encodes = 0;
  std::uint64_t data_sends = 0;
  std::uint64_t data_failovers = 0;
  std::uint64_t deadline_failovers = 0;
  std::uint64_t overload_rejections = 0;
  std::uint64_t engagements = 0;
  std::uint64_t migrations = 0;
  std::uint64_t churn_moves = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t chunks_d2d = 0;
  std::uint64_t chunks_infra = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t digest = 0;  ///< per-device manager state, see collect()
  // Depend on the shard count (per-queue high-water marks, per-shard
  // caches), so they are compared between reps only.
  std::uint64_t peak_pending = 0;
  std::uint64_t world_bytes = 0;
};

/// First field where two outcomes differ, or empty.
std::string diff_outcomes(const Outcome& a, const Outcome& b,
                          bool same_threads) {
  char buf[160];
#define OMNI_BENCH_CMP(field)                                             \
  if (a.field != b.field) {                                               \
    std::snprintf(buf, sizeof buf, "%s: %.17g vs %.17g", #field,          \
                  static_cast<double>(a.field),                          \
                  static_cast<double>(b.field));                         \
    return buf;                                                           \
  }
  OMNI_BENCH_CMP(events)
  OMNI_BENCH_CMP(windows)
  OMNI_BENCH_CMP(global_events)
  OMNI_BENCH_CMP(mailbox_posts)
  OMNI_BENCH_CMP(energy_ma)
  OMNI_BENCH_CMP(peer_coverage)
  OMNI_BENCH_CMP(latency_p50_us)
  OMNI_BENCH_CMP(latency_tail_us)
  OMNI_BENCH_CMP(attempted)
  OMNI_BENCH_CMP(failed)
  OMNI_BENCH_CMP(bad_callbacks)
  OMNI_BENCH_CMP(stray_contexts)
  OMNI_BENCH_CMP(ops_leaked)
  OMNI_BENCH_CMP(ble_delivered)
  OMNI_BENCH_CMP(beacons_received)
  OMNI_BENCH_CMP(contexts_received)
  OMNI_BENCH_CMP(decode_skips)
  OMNI_BENCH_CMP(beacon_encodes)
  OMNI_BENCH_CMP(data_sends)
  OMNI_BENCH_CMP(data_failovers)
  OMNI_BENCH_CMP(deadline_failovers)
  OMNI_BENCH_CMP(overload_rejections)
  OMNI_BENCH_CMP(engagements)
  OMNI_BENCH_CMP(migrations)
  OMNI_BENCH_CMP(churn_moves)
  OMNI_BENCH_CMP(fault_drops)
  OMNI_BENCH_CMP(chunks_d2d)
  OMNI_BENCH_CMP(chunks_infra)
  OMNI_BENCH_CMP(duplicates)
  OMNI_BENCH_CMP(digest)
  if (same_threads) {
    OMNI_BENCH_CMP(peak_pending)
    OMNI_BENCH_CMP(world_bytes)
  }
#undef OMNI_BENCH_CMP
  return {};
}

/// Host-time spans of one rep.
struct Timing {
  double devices_s = 0;  ///< Testbed construction + add_device/add_crowd_node
  double nodes_s = 0;    ///< OmniNode, stacks and apps
  double start_s = 0;    ///< start(), contexts, churn, traffic schedule
  double run_s = 0;      ///< Simulator::run_for
  double setup_s() const { return devices_s + nodes_s + start_s; }
  Timing scaled(double f) const {
    return {devices_s * f, nodes_s * f, start_s * f, run_s * f};
  }
};

// --- Host speed ------------------------------------------------------------

/// A fixed piece of work that uses none of the repository's code: a binary
/// heap of timed entries popped and re-pushed with pseudo-random delays,
/// each step reading and writing a random slot of a 1 MB table, the mix of
/// an event queue. On a shared host the speed of the same code drifts by a
/// quarter within minutes (README.md, host noise). The driver times the
/// gauge around every rep and multiplies the rep's host times by
/// kReferenceS / gauge time, so it reports seconds on the reference host.
class HostGauge {
 public:
  /// Typical gauge time on the reference host, one core of the shared
  /// 4-vCPU Xeon at 2.1 GHz that README.md's numbers come from. A fixed
  /// constant, so scaled times compare across runs and commits.
  static constexpr double kReferenceS = 0.005;

  HostGauge() : table_(kTableWords), heap_(kHeapEntries) {}

  /// Reference seconds per host second, now: the best of three timings, so
  /// one preempted timing does not count.
  double scale() {
    double best = time_once();
    for (int i = 1; i < 3; ++i) best = std::min(best, time_once());
    return kReferenceS / best;
  }

 private:
  static constexpr std::size_t kTableWords = 1 << 17;  // 1 MB
  static constexpr std::size_t kHeapEntries = 1 << 12;
  static constexpr int kSteps = 120000;

  double time_once() {
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < kTableWords; ++i) table_[i] = mix64(i);
    for (std::size_t i = 0; i < kHeapEntries; ++i) heap_[i] = table_[i] >> 24;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint64_t at = heap_.back();
      x = mix64(x ^ table_[at & (kTableWords - 1)]);
      table_[x & (kTableWords - 1)] += at;
      heap_.back() = at + (x >> 44);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    const auto t1 = Clock::now();
    sink_ = x;
    return seconds_between(t0, t1);
  }

  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
  volatile std::uint64_t sink_ = 0;
};

/// Traced-rep instrumentation owned by the benchmark: a preallocated
/// buffer of barrier timestamps and the Omniscope counters read after the
/// run.
struct TraceProbe {
  static constexpr std::size_t kMaxWindows = 1 << 20;
  std::vector<Clock::time_point> barriers;
  std::size_t count = 0;
  Clock::time_point origin;     ///< trace time zero (before setup)
  Clock::time_point run_begin;  ///< the first window opens after this
  std::uint64_t ble_adv = 0;
  std::uint64_t wifi_unicast_sends = 0;
  double neighbors_ns = 0;
  std::size_t neighbor_mismatches = 0;
  Clock::time_point probe_begin, probe_end;
  TraceProbe() : barriers(kMaxWindows) {}
  TraceProbe(const TraceProbe&) = delete;
  TraceProbe& operator=(const TraceProbe&) = delete;
};

/// Forwards to the Omni stack and counts each send's terminal callbacks,
/// so the gate can prove every op the app issued ended exactly once.
class CountingStack final : public baselines::D2dStack {
 public:
  explicit CountingStack(baselines::OmniStack& inner) : inner_(inner) {}
  CountingStack(const CountingStack&) = delete;
  CountingStack& operator=(const CountingStack&) = delete;

  void start() override { inner_.start(); }
  PeerId self() const override { return inner_.self(); }
  void set_advert_handler(AdvertFn fn) override {
    inner_.set_advert_handler(std::move(fn));
  }
  void set_data_handler(DataFn fn) override {
    inner_.set_data_handler(std::move(fn));
  }
  void advertise(Bytes info, Duration interval) override {
    inner_.advertise(std::move(info), interval);
  }
  void stop_advertising() override { inner_.stop_advertising(); }
  void send(PeerId dest, Bytes data, SendDoneFn done) override {
    const std::size_t k = callbacks_.size();
    callbacks_.push_back(0);
    inner_.send(dest, std::move(data),
                [this, k, done = std::move(done)](Status s) {
                  ++callbacks_[k];
                  if (done) done(std::move(s));
                });
  }
  std::vector<PeerId> known_peers() const override {
    return inner_.known_peers();
  }
  const char* name() const override { return inner_.name(); }

  /// Sends whose callback count is not exactly one.
  std::uint64_t bad_callbacks() const {
    return static_cast<std::uint64_t>(std::count_if(
        callbacks_.begin(), callbacks_.end(), [](int c) { return c != 1; }));
  }

 private:
  baselines::OmniStack& inner_;
  std::vector<int> callbacks_;
};

class Rep {
 public:
  Rep(const Workload& w, const Layout& layout, std::uint64_t seed,
      unsigned threads, TraceProbe* trace)
      : w_(w), layout_(layout), seed_(seed), trace_(trace) {
    const auto t0 = Clock::now();
    if (trace_ != nullptr) trace_->origin = t0;
    add_devices(threads);
    const auto t1 = Clock::now();
    if (trace_ != nullptr) attach_trace();
    const auto t2 = Clock::now();
    build_nodes();
    const auto t3 = Clock::now();
    start();
    const auto t4 = Clock::now();
    timing_.devices_s = seconds_between(t0, t1);
    timing_.nodes_s = seconds_between(t2, t3);
    timing_.start_s = seconds_between(t3, t4);
    spans_ = {{"setup.devices", t0, t1},
              {"setup.nodes", t2, t3},
              {"setup.start", t3, t4}};
  }
  // Scheduled events and callbacks hold `this`.
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  void run() {
    sim::Simulator& sim = bed_->simulator();
    const auto t0 = Clock::now();
    if (trace_ != nullptr) trace_->run_begin = t0;
    sim.run_for(Duration::seconds(w_.sim_seconds));
    const auto t1 = Clock::now();
    if (churn_) churn_->stop();
    timing_.run_s = seconds_between(t0, t1);
    spans_.push_back({"run", t0, t1});
    if (trace_ != nullptr) probe_world();
  }

  Outcome collect() const;
  const Timing& timing() const { return timing_; }

  /// Devices per shard if the run had `shards` shards: the engine pins a
  /// device to (home region index % shards).
  std::vector<std::size_t> devices_per_shard(unsigned shards) const {
    std::vector<std::size_t> n(shards, 0);
    for (std::size_t d = 0; d < w_.devices; ++d) {
      ++n[bed_->world().region_of(node_of(d)) % shards];
    }
    return n;
  }

  struct Span {
    const char* name;
    Clock::time_point begin, end;
  };
  const std::vector<Span>& spans() const { return spans_; }

 private:
  /// Per-op record of ops_traffic_1k; written only in the sender's context.
  struct Op {
    std::int64_t due_us = 0;
    std::int64_t done_us = 0;
    std::uint32_t dst = 0;
    std::uint32_t bytes = 0;
    std::uint8_t callbacks = 0;
    bool ok = false;
  };

  void add_devices(unsigned threads);
  void attach_trace();
  void build_nodes();
  void start();
  void schedule_send(std::size_t dev, std::size_t j);
  void probe_world();
  NodeId node_of(std::size_t device) const {
    return static_cast<NodeId>(layout_.device_world[device]);
  }

  const Workload& w_;
  const Layout& layout_;
  const std::uint64_t seed_;
  TraceProbe* trace_;
  Timing timing_;
  std::vector<Span> spans_;

  // Declaration order is teardown order in reverse: apps and nodes go
  // before the testbed their devices live in.
  std::unique_ptr<net::Testbed> bed_;
  std::unique_ptr<net::InfraNetwork> infra_;
  std::unique_ptr<sim::CrowdChurn> churn_;
  std::vector<std::unique_ptr<OmniNode>> nodes_;
  std::vector<std::unique_ptr<baselines::OmniStack>> omni_stacks_;
  std::vector<std::unique_ptr<CountingStack>> stacks_;
  std::vector<std::unique_ptr<apps::DisseminateApp>> apps_;
  /// Context first-heard times per receiver: (sender omni address, sim us).
  /// Each receiver's list is written only in that receiver's context.
  std::vector<std::vector<std::pair<std::uint64_t, std::int64_t>>> heard_;
  std::vector<Op> ops_;
  std::size_t sends_per_device_ = 0;
};

void Rep::add_devices(unsigned threads) {
  bed_ = std::make_unique<net::Testbed>(seed_, radio::Calibration::defaults(),
                                        threads);
  if (w_.kind == Kind::kCity) {
    DiscoveryPolicy adaptive;
    adaptive.mode = DiscoveryPolicy::Mode::kAdaptive;
    bed_->set_discovery_policy(adaptive);
  }
  // The World numbers nodes in admission order, so layout indices are node
  // ids; the churn pool and the neighbor probe rely on it.
  char name[24];
  for (std::size_t i = 0; i < w_.world_nodes; ++i) {
    const bool device = layout_.is_device[i];
    std::snprintf(name, sizeof name, "%c%zu", device ? 'n' : 'c', i);
    const NodeId id = device
                          ? bed_->add_device(name, layout_.pos[i]).node()
                          : bed_->add_crowd_node(name, layout_.pos[i]);
    OMNI_CHECK_MSG(id == i, "world node ids are not admission indices");
  }
}

void Rep::attach_trace() {
  // After the devices: attaching first makes every add_device reshape the
  // metrics registry (see README.md, leads).
  bed_->enable_observability(1 << 16, /*detail=*/false);
  TraceProbe* tr = trace_;
  bed_->simulator().add_barrier_hook([tr] {
    if (tr->count < tr->barriers.size()) {
      tr->barriers[tr->count++] = Clock::now();
    }
  });
}

void Rep::build_nodes() {
  OmniNodeOptions opts;
  opts.manager.discovery = bed_->discovery_policy();
  nodes_.reserve(w_.devices);
  for (std::size_t d = 0; d < w_.devices; ++d) {
    nodes_.push_back(
        std::make_unique<OmniNode>(bed_->device(d), bed_->mesh(), opts));
  }
  switch (w_.kind) {
    case Kind::kGrid:
    case Kind::kCity:
      heard_.resize(w_.devices);
      for (std::size_t d = 0; d < w_.devices; ++d) {
        heard_[d].reserve(layout_.in_range[d].size());
        nodes_[d]->manager().request_context(
            [this, d](const OmniAddress& src, const Bytes&) {
              auto& h = heard_[d];
              for (const auto& e : h) {
                if (e.first == src.value) return;
              }
              h.emplace_back(src.value, bed_->simulator().now().as_micros());
            });
      }
      break;
    case Kind::kTraffic: {
      sim::FaultPlan::LinkFault noise;
      noise.loss = 0.05;
      noise.extra_latency = Duration::millis(2);
      bed_->fault_plan().set_seed(seed_);
      bed_->fault_plan().add_link_fault(noise);
      sends_per_device_ = static_cast<std::size_t>(
          (kLastSendS - kFirstSendS) / kSendPeriodS);
      ops_.resize(w_.devices * sends_per_device_);
      break;
    }
    case Kind::kSwarm: {
      infra_ = std::make_unique<net::InfraNetwork>(bed_->simulator(),
                                                   bed_->calibration());
      apps::DisseminateConfig config;
      config.file_bytes = 3'000'000;
      config.chunk_bytes = 250'000;
      config.infra_rate_Bps = 100e3;
      const std::uint64_t chunks =
          (config.file_bytes + config.chunk_bytes - 1) / config.chunk_bytes;
      const std::uint64_t per_device = chunks / w_.devices;
      for (std::size_t d = 0; d < w_.devices; ++d) {
        omni_stacks_.push_back(
            std::make_unique<baselines::OmniStack>(*nodes_[d]));
        stacks_.push_back(std::make_unique<CountingStack>(*omni_stacks_[d]));
        const std::uint64_t first = d * per_device;
        const std::uint64_t count =
            d + 1 == w_.devices ? chunks - first : per_device;
        apps_.push_back(std::make_unique<apps::DisseminateApp>(
            *stacks_[d], *infra_, bed_->device(d).wifi(), bed_->simulator(),
            config, first, count));
      }
      break;
    }
  }
}

void Rep::start() {
  switch (w_.kind) {
    case Kind::kGrid:
    case Kind::kCity:
      for (auto& node : nodes_) {
        node->start();
        node->manager().add_context(ContextParams{}, Bytes{0x5c}, nullptr);
      }
      if (w_.kind == Kind::kCity) {
        std::vector<NodeId> movers;
        movers.reserve(layout_.movers.size());
        for (std::size_t i : layout_.movers) {
          movers.push_back(static_cast<NodeId>(i));
        }
        sim::CrowdChurn::Options opts;
        opts.area_min = {0, 0};
        opts.area_max = {layout_.extent_m, layout_.extent_m};
        opts.per_tick = 200;
        churn_ = std::make_unique<sim::CrowdChurn>(bed_->world(),
                                                   std::move(movers), opts,
                                                   seed_);
        churn_->start();
      }
      break;
    case Kind::kTraffic:
      for (auto& node : nodes_) node->start();
      for (std::size_t d = 0; d < w_.devices; ++d) schedule_send(d, 0);
      break;
    case Kind::kSwarm:
      for (auto& app : apps_) app->start();
      break;
  }
}

// Open loop in simulated time: send j of device `dev` is due at a fixed
// instant and fires exactly then, so latency counts from the due time and
// the generator is never late.
void Rep::schedule_send(std::size_t dev, std::size_t j) {
  if (j >= sends_per_device_) return;
  const std::size_t k = dev * sends_per_device_ + j;
  const std::int64_t phase_us =
      static_cast<std::int64_t>(draw(seed_, 1, dev) % 2'000'000);
  Op& op = ops_[k];
  op.due_us = static_cast<std::int64_t>(
                  (kFirstSendS + kSendPeriodS * static_cast<double>(j)) * 1e6) +
              phase_us;
  const auto& nbrs = layout_.in_range[dev];
  op.dst = nbrs[draw(seed_, 2, k) % nbrs.size()];
  op.bytes = static_cast<std::uint32_t>(
      (j + draw(seed_, 3, dev)) % kBulkEvery == 0 ? kBulkBytes : kSmallBytes);
  bed_->simulator().at_on(
      node_of(dev), TimePoint::origin() + Duration::micros(op.due_us),
      [this, dev, j, k] {
        Op& o = ops_[k];
        nodes_[dev]->manager().send_data(
            {nodes_[o.dst]->address()}, Bytes(o.bytes, 0xC4),
            [this, k](StatusCode code, const ResponseInfo&) {
              Op& done = ops_[k];
              ++done.callbacks;
              done.done_us = bed_->simulator().now().as_micros();
              done.ok = code == StatusCode::kSendDataSuccess;
            });
        schedule_send(dev, j + 1);
      });
}

void Rep::probe_world() {
  TraceProbe& tr = *trace_;
  sim::World& world = bed_->world();
  const double range = bed_->calibration().ble_range_m;
  std::vector<NodeId> out;
  std::vector<std::uint32_t> devs;
  // The first pass checks World::neighbors against the geometric oracle.
  for (std::size_t d = 0; d < w_.devices; ++d) {
    world.neighbors(node_of(d), range, out);
    devs.clear();
    for (NodeId id : out) {
      if (layout_.is_device[id]) {
        devs.push_back(static_cast<std::uint32_t>(
            std::lower_bound(layout_.device_world.begin(),
                             layout_.device_world.end(), std::size_t{id}) -
            layout_.device_world.begin()));
      }
    }
    if (devs != layout_.in_range[d]) ++tr.neighbor_mismatches;
  }
  // Timed passes: repeat until the probe spans at least 20 ms.
  std::uint64_t calls = 0;
  tr.probe_begin = Clock::now();
  do {
    for (std::size_t d = 0; d < w_.devices; ++d) {
      world.neighbors(node_of(d), range, out);
    }
    calls += w_.devices;
    tr.probe_end = Clock::now();
  } while (seconds_between(tr.probe_begin, tr.probe_end) < 0.02);
  tr.neighbors_ns =
      seconds_between(tr.probe_begin, tr.probe_end) * 1e9 /
      static_cast<double>(calls);
  const obs::Omniscope& sc = *bed_->observability();
  tr.ble_adv = sc.metrics().counter_total(sc.core().ble_adv);
  tr.wifi_unicast_sends = sc.metrics().counter_total(
      sc.core().tech_send[static_cast<int>(Technology::kWifiUnicast)]);
}

/// Nearest-rank percentile of a sorted sample.
template <typename T>
T percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return T{};
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Mean of the largest `share` of a sorted sample (at least one value).
/// Unlike a high percentile it does not jump by a whole beacon interval
/// when a seed moves a few ops across the lattice of beacon instants.
double tail_mean(const std::vector<std::int64_t>& sorted, double share) {
  if (sorted.empty()) return 0;
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(share * static_cast<double>(sorted.size()))));
  double sum = 0;
  for (std::size_t i = sorted.size() - n; i < sorted.size(); ++i) {
    sum += static_cast<double>(sorted[i]);
  }
  return sum / static_cast<double>(n);
}

/// FNV-1a accumulator over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x00000100000001B3ull;
    }
  }
};

Outcome Rep::collect() const {
  net::Testbed& bed = *bed_;
  sim::Simulator& sim = bed.simulator();
  Outcome o;
  o.events = sim.executed_events();
  o.windows = sim.windows_run();
  o.global_events = sim.global_events_run();
  o.mailbox_posts = sim.mailbox_posts();
  o.peak_pending = sim.peak_pending_events();
  o.ble_delivered = bed.ble_medium().delivered_count();
  o.migrations = bed.world().migrations();
  o.world_bytes = bed.world().memory_stats().total();
  if (churn_) o.churn_moves = churn_->moves_started();
  if (w_.kind == Kind::kTraffic) {
    o.fault_drops = bed.fault_plan().stats().drops;
  }

  const TimePoint end = sim.now();
  double energy_sum = 0;
  std::size_t covered = 0;
  Digest dg;
  for (std::size_t d = 0; d < w_.devices; ++d) {
    energy_sum += bed.device(d).meter().average_ma(TimePoint::origin(), end);
    const OmniManager& m = nodes_[d]->manager();
    for (std::uint32_t s : layout_.in_range[d]) {
      if (m.peer_table().find(nodes_[s]->address()) != nullptr) ++covered;
    }
    const ManagerStats& st = m.stats();
    o.beacons_received += st.beacons_received;
    o.contexts_received += st.context_received;
    o.decode_skips += st.beacon_decode_skips;
    o.beacon_encodes += st.beacon_encodes;
    o.data_sends += st.data_sends;
    o.data_failovers += st.data_failovers;
    o.deadline_failovers += st.deadline_failovers;
    o.overload_rejections += st.overload_rejections;
    o.engagements += st.engagements;
    o.ops_leaked += m.pending_data_count() + m.data_attempt_count() +
                    m.context_attempt_count();
    for (std::uint64_t v :
         {std::uint64_t{m.peer_table().size()}, st.packets_received,
          st.beacons_received, st.context_received, st.data_received,
          st.data_sends, st.data_failovers, st.context_failovers,
          st.engagements, st.disengagements, st.beacons_suppressed}) {
      dg.add(v);
    }
  }
  o.energy_ma = energy_sum / static_cast<double>(w_.devices);
  o.peer_coverage = layout_.pairs == 0 ? 0.0
                                       : static_cast<double>(covered) /
                                             static_cast<double>(layout_.pairs);

  // Ops and their latencies, per workload.
  std::vector<std::int64_t> lat;
  switch (w_.kind) {
    case Kind::kGrid:
    case Kind::kCity: {
      // One op per in-range (sender, receiver) pair: the sender's context
      // (added at t = 0) reaching the receiver.
      std::unordered_map<std::uint64_t, std::uint32_t> device_of;
      device_of.reserve(w_.devices);
      for (std::size_t d = 0; d < w_.devices; ++d) {
        device_of.emplace(nodes_[d]->address().value,
                          static_cast<std::uint32_t>(d));
      }
      lat.reserve(layout_.pairs);
      for (std::size_t d = 0; d < w_.devices; ++d) {
        const auto& want = layout_.in_range[d];
        for (const auto& [src, at_us] : heard_[d]) {
          auto it = device_of.find(src);
          if (it == device_of.end() ||
              !std::binary_search(want.begin(), want.end(), it->second)) {
            ++o.stray_contexts;
            continue;
          }
          lat.push_back(at_us);
        }
      }
      o.attempted = layout_.pairs;
      o.failed = layout_.pairs - lat.size();
      break;
    }
    case Kind::kTraffic:
      lat.reserve(ops_.size());
      for (const Op& op : ops_) {
        if (op.callbacks != 1) ++o.bad_callbacks;
        if (op.callbacks > 0 && op.ok) {
          lat.push_back(op.done_us - op.due_us);
        } else {
          ++o.failed;
        }
        dg.add(static_cast<std::uint64_t>(op.done_us));
      }
      o.attempted = ops_.size();
      break;
    case Kind::kSwarm:
      for (std::size_t d = 0; d < w_.devices; ++d) {
        const apps::DisseminateApp& app = *apps_[d];
        o.chunks_d2d += app.chunks_from_d2d();
        o.chunks_infra += app.chunks_from_infra();
        o.duplicates += app.duplicate_chunks();
        o.bad_callbacks += stacks_[d]->bad_callbacks();
        if (app.complete()) {
          lat.push_back((app.completed_at() - app.started_at()).as_micros());
        } else {
          ++o.failed;
        }
      }
      o.attempted = w_.devices;
      break;
  }
  std::sort(lat.begin(), lat.end());
  for (std::int64_t v : lat) dg.add(static_cast<std::uint64_t>(v));
  o.latency_p50_us = percentile(lat, 0.50);
  o.latency_tail_us = tail_mean(lat, 0.01);
  o.digest = dg.h;
  return o;
}

// --- Reporting -------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Perfetto trace_event JSON: setup stages, the run, the world probe and
/// every window on its own track, in host microseconds.
bool write_trace(const std::string& path, const Rep& rep,
                 const TraceProbe& tr) {
  std::ofstream out(path);
  if (!out) return false;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - tr.origin).count();
  };
  char buf[256];
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"driver\"}},\n"
         "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 2, "
         "\"args\": {\"name\": \"windows\"}}";
  auto span = [&](const char* name, int tid, Clock::time_point a,
                  Clock::time_point b) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  name, tid, us(a), us(b) - us(a));
    out << buf;
  };
  for (const Rep::Span& s : rep.spans()) span(s.name, 1, s.begin, s.end);
  span("probe.world_neighbors", 1, tr.probe_begin, tr.probe_end);
  Clock::time_point prev = tr.run_begin;
  for (std::size_t i = 0; i < tr.count; ++i) {
    span("window", 2, prev, tr.barriers[i]);
    prev = tr.barriers[i];
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "omni_bench: %s\nusage: omni_bench --workload W --seed S "
               "--seconds N [--trace] [--out DIR]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = -1;
  bool trace = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& cand : kWorkloads) {
        if (name == cand.name) w = &cand;
      }
      if (w == nullptr) return usage(("unknown workload " + name).c_str());
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--seconds" && has_value) {
      char* end = nullptr;
      seconds = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0') seconds = -1;
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--out" && has_value) {
      out_dir = argv[++i];
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  if (w == nullptr || !have_seed || !(seconds > 0)) {
    return usage("--workload, --seed and a positive --seconds are required");
  }

  // Pin glibc's mmap and trim thresholds. Left dynamic, they follow the
  // process's allocation history, and swarm_12's 250 KB chunk buffers flip
  // between a fresh mmap per buffer and heap reuse from one rep to the
  // next: a ~25% swing in run time that no change to the code causes.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const Layout layout =
      make_layout(*w, radio::Calibration::defaults().ble_range_m);
  std::vector<std::string> errors;
  auto gate = [&errors](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };

  // Timed reps. The first rep is a warm-up: it is checked like the others,
  // but its host times are dropped because it alone pays the first-touch
  // page faults of a growing heap. The gauge runs between reps; a rep's
  // host times are scaled by the mean of the gauges on either side of it.
  HostGauge gauge;
  std::vector<Timing> timings;
  std::vector<double> raw_run_s;
  std::vector<double> scales;
  Outcome first;
  std::uint64_t reps = 0;
  double scale_before = gauge.scale();
  const auto begin = Clock::now();
  do {
    Rep rep(*w, layout, seed, 1, nullptr);
    rep.run();
    const double scale_after = gauge.scale();
    const double scale = 0.5 * (scale_before + scale_after);
    scale_before = scale_after;
    const Outcome o = rep.collect();
    if (reps++ == 0) {
      first = o;
      continue;
    }
    timings.push_back(rep.timing().scaled(scale));
    raw_run_s.push_back(rep.timing().run_s);
    scales.push_back(scale);
    const std::string d = diff_outcomes(first, o, true);
    gate(d.empty(),
         "rep " + std::to_string(reps) + " disagrees with rep 1: " + d);
  } while (static_cast<int>(timings.size()) < kMinReps ||
           seconds_between(begin, Clock::now()) < seconds);
  const double rss_mb = peak_rss_mb();

  auto med = [&timings](double (*get)(const Timing&)) {
    std::vector<double> v;
    for (const Timing& t : timings) v.push_back(get(t));
    return median(std::move(v));
  };
  const double run_s = med([](const Timing& t) { return t.run_s; });
  const double setup_s = med([](const Timing& t) { return t.setup_s(); });

  gate(first.ops_leaked == 0,
       "omni.ops_leaked = " + std::to_string(first.ops_leaked));
  gate(first.bad_callbacks == 0,
       std::to_string(first.bad_callbacks) +
           " ops got zero or several terminal callbacks");
  gate(first.stray_contexts == 0,
       std::to_string(first.stray_contexts) +
           " contexts arrived from out-of-range senders");
  gate(first.attempted > 0, "no operation was attempted");

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"run_s", run_s, "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"energy_ma", first.energy_ma, "mA"},
        {"peer_coverage", first.peer_coverage, "ratio"},
        {"delivery_ratio",
         1.0 - ratio(static_cast<double>(first.failed),
                     static_cast<double>(first.attempted)),
         "ratio"},
        {"latency_ms_p50", static_cast<double>(first.latency_p50_us) / 1e3,
         "sim_ms"},
        {"latency_ms_tail", first.latency_tail_us / 1e3, "sim_ms"},
    };
  } else {
    TraceProbe tr;
    const double traced_before = gauge.scale();
    Rep traced(*w, layout, seed, 1, &tr);
    traced.run();
    const double traced_scale = 0.5 * (traced_before + gauge.scale());
    const Outcome t = traced.collect();
    const std::string d = diff_outcomes(first, t, true);
    gate(d.empty(), "traced run disagrees with the timed run: " + d);
    gate(tr.neighbor_mismatches == 0,
         std::to_string(tr.neighbor_mismatches) +
             " devices got World::neighbors results that differ from the "
             "geometric oracle");

    double speedup_4t = 0;
    if (w->rerun) {
      const double rerun_before = gauge.scale();
      Rep rerun(*w, layout, seed, kRerunThreads, nullptr);
      rerun.run();
      const double rerun_scale = 0.5 * (rerun_before + gauge.scale());
      const std::string rd = diff_outcomes(first, rerun.collect(), false);
      gate(rd.empty(), "run at " + std::to_string(kRerunThreads) +
                           " threads disagrees with 1 thread: " + rd);
      speedup_4t = run_s / (rerun.timing().run_s * rerun_scale);
    }

    std::vector<double> windows_us;
    windows_us.reserve(tr.count);
    Clock::time_point prev = tr.run_begin;
    for (std::size_t i = 0; i < tr.count; ++i) {
      windows_us.push_back(
          std::chrono::duration<double, std::micro>(tr.barriers[i] - prev)
              .count() *
          traced_scale);
      prev = tr.barriers[i];
    }
    std::sort(windows_us.begin(), windows_us.end());

    const std::vector<std::size_t> per_shard =
        traced.devices_per_shard(kRerunThreads);
    const double shard_imbalance =
        static_cast<double>(
            *std::max_element(per_shard.begin(), per_shard.end())) /
        (static_cast<double>(w->devices) / kRerunThreads);

    std::filesystem::create_directories(out_dir);
    const std::string trace_path =
        out_dir + "/trace_" + std::string(w->name) + ".json";
    if (!write_trace(trace_path, traced, tr)) {
      errors.push_back("cannot write " + trace_path);
    } else {
      std::printf("wrote %s (%zu windows)\n", trace_path.c_str(), tr.count);
    }

    const double events = static_cast<double>(first.events);
    metrics = {
        {"sim.events", events, "count"},
        {"sim.ns_per_event", ratio(run_s * 1e9, events), "ns"},
        {"sim.global_share",
         ratio(static_cast<double>(first.global_events), events), "ratio"},
        {"sim.mailbox_posts", static_cast<double>(first.mailbox_posts),
         "count"},
        {"sim.windows", static_cast<double>(first.windows), "count"},
        {"sim.window_us_p50", percentile(windows_us, 0.50), "us"},
        {"sim.window_us_p99", percentile(windows_us, 0.99), "us"},
        {"sim.speedup_4t", speedup_4t, "x"},
        {"sim.shard_imbalance", shard_imbalance, "ratio"},
        {"sim.peak_pending_events", static_cast<double>(first.peak_pending),
         "count"},
        {"world.neighbors_ns", tr.neighbors_ns * traced_scale, "ns"},
        {"world.migrations", static_cast<double>(first.migrations), "count"},
        {"world.churn_moves", static_cast<double>(first.churn_moves),
         "count"},
        {"world.bytes_per_node",
         ratio(static_cast<double>(first.world_bytes),
               static_cast<double>(w->world_nodes)),
         "B"},
        {"radio.ble.delivered", static_cast<double>(first.ble_delivered),
         "count"},
        {"radio.ble.rx_per_adv",
         ratio(static_cast<double>(first.ble_delivered),
               static_cast<double>(tr.ble_adv)),
         "ratio"},
        {"radio.wifi.unicast_sends", static_cast<double>(tr.wifi_unicast_sends),
         "count"},
        {"fault.drops", static_cast<double>(first.fault_drops), "count"},
        {"omni.beacons_received", static_cast<double>(first.beacons_received),
         "count"},
        {"omni.memo_hit_ratio",
         ratio(static_cast<double>(first.decode_skips),
               static_cast<double>(first.beacons_received +
                                   first.contexts_received)),
         "ratio"},
        {"omni.beacon_encodes", static_cast<double>(first.beacon_encodes),
         "count"},
        {"omni.data_sends", static_cast<double>(first.data_sends), "count"},
        {"omni.data_failovers", static_cast<double>(first.data_failovers),
         "count"},
        {"omni.deadline_failovers",
         static_cast<double>(first.deadline_failovers), "count"},
        {"omni.overload_rejections",
         static_cast<double>(first.overload_rejections), "count"},
        {"omni.engagements", static_cast<double>(first.engagements), "count"},
        {"omni.ops_leaked", static_cast<double>(first.ops_leaked), "count"},
        {"setup.devices_s", med([](const Timing& t) { return t.devices_s; }),
         "s"},
        {"setup.nodes_s", med([](const Timing& t) { return t.nodes_s; }),
         "s"},
        {"setup.start_s", med([](const Timing& t) { return t.start_s; }),
         "s"},
        {"apps.chunks_d2d", static_cast<double>(first.chunks_d2d), "count"},
        {"apps.chunks_infra", static_cast<double>(first.chunks_infra),
         "count"},
        {"apps.duplicate_ratio",
         ratio(static_cast<double>(first.duplicates),
               static_cast<double>(first.chunks_d2d + first.chunks_infra +
                                   first.duplicates)),
         "ratio"},
        {"obs.trace_overhead",
         traced.timing().run_s * traced_scale / run_s - 1.0, "ratio"},
    };
  }

  std::printf("%s seed %llu: %llu reps, median run %.4f s, setup %.4f s "
              "(host: run %.4f s at gauge scale %.3f), "
              "%llu events, %llu ops (%llu failed)\n",
              w->name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(reps), run_s, setup_s,
              median(raw_run_s), median(scales),
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CORRECTNESS: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(first.attempted * reps),
              static_cast<unsigned long long>(first.failed * reps));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return errors.empty() ? 0 : 1;
}
