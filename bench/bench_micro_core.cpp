// Microbenchmarks (google-benchmark) for the middleware's hot paths: the
// packed-struct codec, sealing, queue plumbing, the event queue, and a full
// simulated testbed tick.
//
// Besides the google-benchmark tables, main() measures what an event costs
// by closure capture size (schedule+dispatch ns, events/sec, heap
// bytes/event via global operator new counting, slab slot footprint) and
// writes BENCH_micro_core.json for the perf trajectory. The two rows show
// the cost behind the rule that hot closures capture at most 16 bytes, and
// main() exits 1 unless the captureless row allocates nothing per event.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "net/testbed.h"
#include "omni/omni_node.h"
#include "omni/packed_struct.h"
#include "omni/queues.h"
#include "omni/security.h"
#include "sim/event_queue.h"

// Global allocation meter for the bytes/event rows. Counting allocations
// (not frees) around a measured region gives heap bytes acquired per event;
// the slab itself is pre-warmed so steady-state closures are the only
// allocators left in the loop.
namespace {
std::atomic<std::uint64_t> g_heap_bytes{0};
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace omni {
namespace {

void BM_PackedStructEncodeBeacon(benchmark::State& state) {
  PackedStruct p = PackedStruct::address_beacon(
      OmniAddress{0x1234},
      {MeshAddress::from_node(1), BleAddress::from_node(1)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.encode());
  }
}
BENCHMARK(BM_PackedStructEncodeBeacon);

void BM_PackedStructDecodeBeacon(benchmark::State& state) {
  Bytes wire = PackedStruct::address_beacon(
                   OmniAddress{0x1234},
                   {MeshAddress::from_node(1), BleAddress::from_node(1)})
                   .encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PackedStruct::decode(wire));
  }
}
BENCHMARK(BM_PackedStructDecodeBeacon);

void BM_PackedStructRoundTripData(benchmark::State& state) {
  Bytes payload(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    Bytes wire = PackedStruct::data(OmniAddress{1}, payload).encode();
    benchmark::DoNotOptimize(PackedStruct::decode(wire));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackedStructRoundTripData)->Range(32, 1 << 20);

void BM_BeaconCipherSealOpen(benchmark::State& state) {
  Bytes key{1, 2, 3, 4};
  BeaconCipher cipher{std::span<const std::uint8_t>(key)};
  Bytes plain(static_cast<std::size_t>(state.range(0)), 0x55);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    Bytes sealed = cipher.seal(plain, ++nonce);
    benchmark::DoNotOptimize(cipher.open(sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BeaconCipherSealOpen)->Range(23, 1 << 12);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(TimePoint::from_micros(i * 37 % 1000), [] {});
    }
    while (!q.empty()) q.pop(TimePoint::max());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_SimQueuePushDrain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    SimQueue<int> q(sim, sim::kGlobalOwner);
    int drained = 0;
    q.set_consumer([&] {
      while (q.try_pop()) ++drained;
    });
    for (int i = 0; i < 1000; ++i) q.push(i);
    sim.run();
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimQueuePushDrain);

// Full-stack throughput: virtual seconds simulated per wall second for a
// 6-device Omni neighborhood beaconing at 500 ms.
void BM_TestbedVirtualSecond(benchmark::State& state) {
  net::Testbed bed(1);
  std::vector<std::unique_ptr<OmniNode>> nodes;
  for (int i = 0; i < 6; ++i) {
    auto& dev = bed.add_device("n" + std::to_string(i),
                               {static_cast<double>(i * 5), 0});
    nodes.push_back(std::make_unique<OmniNode>(dev, bed.mesh()));
    nodes.back()->start();
  }
  for (auto _ : state) {
    bed.simulator().run_for(Duration::seconds(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TestbedVirtualSecond)->Unit(benchmark::kMillisecond);

void BM_FluidFlowRecompute(benchmark::State& state) {
  net::Testbed bed(2);
  std::vector<net::Device*> devs;
  for (int i = 0; i < 10; ++i) {
    devs.push_back(&bed.add_device("d" + std::to_string(i),
                                   {static_cast<double>(i), 0}));
    devs.back()->wifi().set_powered(true);
    devs.back()->wifi().join(bed.mesh(), [](Status) {});
  }
  bed.simulator().run_for(Duration::seconds(1));
  for (auto _ : state) {
    // Open 9 flows into device 0 and drain them: lots of rate recomputes.
    for (int i = 1; i < 10; ++i) {
      bed.mesh().open_flow(devs[i]->wifi(), devs[0]->wifi().address(),
                           100'000, nullptr);
    }
    bed.simulator().run_for(Duration::seconds(2));
  }
  state.SetItemsProcessed(state.iterations() * 9);
}
BENCHMARK(BM_FluidFlowRecompute)->Unit(benchmark::kMillisecond);

// --- Event cost by closure capture size ------------------------------------

struct EventVariantResult {
  const char* variant;
  double ns_per_event = 0;
  double events_per_sec = 0;
  double heap_bytes_per_event = 0;
};

// One schedule+dispatch measurement over a pre-warmed queue (slab already
// grown, so vector growth does not pollute the heap meter). `schedule` fills
// the queue with kBatch events; the drain loop runs each popped closure the
// way Simulator::run_shard_window does. A batch of far-future anchor events
// stays pending throughout and each drain stops before them: a queue drained
// empty would trim and shrink its slab and heap (EventQueue::maybe_compact),
// and every rep would then regrow both.
template <typename ScheduleFn>
EventVariantResult measure_events(const char* variant, ScheduleFn schedule) {
  constexpr int kBatch = 1 << 15;
  constexpr int kReps = 5;
  constexpr TimePoint kAnchorAt = TimePoint::from_micros(1'000'000'000);
  sim::EventQueue q;
  for (int i = 0; i < kBatch; ++i) q.schedule(kAnchorAt, [] {});
  auto drain = [&] {
    while (q.next_time() < kAnchorAt) q.pop(TimePoint::max()).fn();
  };
  schedule(q, kBatch);  // warm the slab (and the allocator's size classes)
  drain();

  EventVariantResult res;
  res.variant = variant;
  double best_ns = 0;
  std::uint64_t heap = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t h0 = g_heap_bytes.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    schedule(q, kBatch);
    drain();
    const auto t1 = std::chrono::steady_clock::now();
    heap = g_heap_bytes.load(std::memory_order_relaxed) - h0;
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / kBatch;
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }
  res.ns_per_event = best_ns;
  res.events_per_sec = 1e9 / best_ns;
  res.heap_bytes_per_event = static_cast<double>(heap) / kBatch;
  return res;
}

/// Prints and writes the rows; false when the captureless closure
/// allocated.
bool run_event_variant_report() {
  bench::print_heading(
      "Event cost by closure capture size (schedule + dispatch)");

  // Captureless closure: std::function stores it inline (small-buffer).
  auto inline_closure = measure_events(
      "closure-inline", [](sim::EventQueue& q, int n) {
        for (int i = 0; i < n; ++i) {
          q.schedule(TimePoint::from_micros(i * 37 % 1000), [] {});
        }
      });
  // Three ids and a reference (32 bytes), past std::function's 16-byte
  // inline buffer: every event heap-allocates its body. Hot closures capture
  // at most 16 bytes (`this` plus an id) to stay in the first row's cost.
  struct Captured {
    std::uint64_t node, uid, adv;
  };
  volatile std::uint64_t capture_sink = 0;
  auto capture_closure = measure_events(
      "closure-capture", [&capture_sink](sim::EventQueue& q, int n) {
        for (int i = 0; i < n; ++i) {
          Captured c{static_cast<std::uint64_t>(i), 7, 9};
          q.schedule(TimePoint::from_micros(i * 37 % 1000),
                     [c, &capture_sink] { capture_sink = capture_sink + c.node; });
        }
      });

  const double slot_bytes =
      static_cast<double>(sim::EventQueue::slot_footprint());
  bench::Table table({"variant", "ns/event", "events/sec", "heap B/event",
                      "slot B", "total B/event"});
  bench::BenchReport report("micro_core");
  report.set_meta("batch", std::to_string(1 << 15));
  report.set_meta("compare",
                  "schedule+dispatch, pre-warmed slab, anchored queue, best "
                  "of 5");
  for (const EventVariantResult& r : {inline_closure, capture_closure}) {
    table.add_row({r.variant, bench::fmt(r.ns_per_event),
                   bench::fmt(r.events_per_sec, 0),
                   bench::fmt(r.heap_bytes_per_event),
                   bench::fmt(slot_bytes, 0),
                   bench::fmt(slot_bytes + r.heap_bytes_per_event)});
    report.add_row()
        .field("variant", std::string(r.variant))
        .field("schedule_dispatch_ns", r.ns_per_event)
        .field("events_per_sec", r.events_per_sec)
        .field("heap_bytes_per_event", r.heap_bytes_per_event)
        .field("slot_bytes", slot_bytes)
        .field("total_bytes_per_event",
               slot_bytes + r.heap_bytes_per_event);
  }
  table.print();
  report.write_file();
  // The rule the rows stand behind (DESIGN.md "Removed: typed events"): a
  // closure capturing at most 16 bytes schedules without allocating.
  return inline_closure.heap_bytes_per_event == 0.0;
}

}  // namespace
}  // namespace omni

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!omni::run_event_variant_report()) {
    std::fprintf(stderr,
                 "closure-inline allocated on the heap: a closure capturing "
                 "at most 16 bytes must schedule without allocating\n");
    return 1;
  }
  return 0;
}
