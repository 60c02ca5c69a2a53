// Omniscope observability layer: metrics registry sharding, flight-recorder
// ring semantics, trace-file round trips, Perfetto export structure, the
// scenario `dump trace` directive, and the energy ledger's agreement with
// the float-integral EnergyMeter it mirrors.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/omniscope.h"
#include "obs/perfetto.h"
#include "obs/strings.h"
#include "obs/trace_file.h"
#include "omni/omni_node.h"
#include "scenario/scenario.h"

namespace omni::obs {
namespace {

// --- Metrics registry ------------------------------------------------------

TEST(MetricsRegistryTest, CounterAggregatesAcrossLanesAndOwners) {
  MetricsRegistry reg;
  MetricId c = reg.counter("test.counter");
  reg.shape(/*owner_count=*/4, /*lanes=*/3);
  // Attribution is independent of the writing lane: the same owner bumped
  // from different lanes sums, which is what makes aggregates identical
  // for any shard partition.
  reg.add(0, c, /*owner=*/2, 5);
  reg.add(1, c, /*owner=*/2, 7);
  reg.add(2, c, /*owner=*/0, 1);
  reg.add(0, c, sim::kGlobalOwner, 100);
  EXPECT_EQ(reg.counter_value(c, 2), 12u);
  EXPECT_EQ(reg.counter_value(c, 0), 1u);
  EXPECT_EQ(reg.counter_value(c, sim::kGlobalOwner), 100u);
  EXPECT_EQ(reg.counter_total(c), 113u);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("same"), reg.counter("same"));
  EXPECT_EQ(reg.metric_count(), 1u);
}

TEST(MetricsRegistryTest, GaugeLatestStampWins) {
  MetricsRegistry reg;
  MetricId g = reg.gauge("test.gauge");
  reg.shape(2, 3);
  reg.set_gauge(0, g, 1, 10, /*stamp_us=*/100);
  reg.set_gauge(2, g, 1, 99, /*stamp_us=*/200);
  reg.set_gauge(1, g, 1, 50, /*stamp_us=*/150);
  EXPECT_EQ(reg.gauge_value(g, 1), 99u);
}

TEST(MetricsRegistryTest, HistogramBucketsBySample) {
  MetricsRegistry reg;
  const std::array<double, 3> bounds = {1.0, 5.0, 10.0};
  MetricId h = reg.histogram("test.hist", bounds);
  reg.shape(2, 2);
  reg.observe(0, h, 0, 0.5);   // bucket 0 (<= 1)
  reg.observe(1, h, 0, 3.0);   // bucket 1 (<= 5)
  reg.observe(0, h, 0, 9.0);   // bucket 2 (<= 10)
  reg.observe(1, h, 0, 11.0);  // overflow bucket
  reg.observe(0, h, 1, 3.0);   // other owner
  auto counts = reg.histogram_counts(h, 0);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  auto total = reg.histogram_total(h);
  EXPECT_EQ(total[1], 2u);
}

TEST(MetricsRegistryTest, ShapeGrowthPreservesCells) {
  MetricsRegistry reg;
  MetricId c = reg.counter("grow");
  reg.shape(1, 2);
  reg.add(0, c, 0, 42);
  reg.shape(8, 4);  // more owners, more lanes
  EXPECT_EQ(reg.counter_value(c, 0), 42u);
  reg.add(3, c, 7, 1);
  EXPECT_EQ(reg.counter_total(c), 43u);
}

// --- Flight recorder -------------------------------------------------------

TraceRecord rec(std::int64_t t_us, std::uint32_t owner, Cat c) {
  TraceRecord r;
  r.t_us = t_us;
  r.owner = owner;
  r.cat = static_cast<std::uint16_t>(c);
  return r;
}

TEST(FlightRecorderTest, RingWrapKeepsNewestAndCountsDrops) {
  FlightRecorder fr;
  fr.configure(/*lanes=*/1, /*capacity=*/16);
  EXPECT_EQ(fr.capacity(), 16u);
  for (int i = 0; i < 20; ++i) {
    fr.write(0, rec(i, 0, Cat::kBleAdv));
  }
  EXPECT_EQ(fr.total_written(), 20u);
  EXPECT_EQ(fr.dropped(), 4u);
  std::vector<TraceRecord> out;
  fr.collect(out);
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out.front().t_us, 4);  // oldest four overwritten
  EXPECT_EQ(out.back().t_us, 19);
}

TEST(FlightRecorderTest, CollectMergesLanesIntoCanonicalOrder) {
  FlightRecorder fr;
  fr.configure(2, 16);
  fr.write(0, rec(30, 1, Cat::kBleAdv));
  fr.write(1, rec(10, 2, Cat::kBleRx));
  fr.write(0, rec(20, 0, Cat::kMeshTx));
  std::vector<TraceRecord> out;
  fr.collect(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].t_us, 10);
  EXPECT_EQ(out[1].t_us, 20);
  EXPECT_EQ(out[2].t_us, 30);
}

TEST(StringTableTest, InternsDenseIdsAboveBase) {
  StringTable tab(kCatCount);
  std::uint32_t a = tab.intern("alpha");
  std::uint32_t b = tab.intern("beta");
  EXPECT_EQ(a, kCatCount);
  EXPECT_EQ(b, kCatCount + 1u);
  EXPECT_EQ(tab.intern("alpha"), a);
  EXPECT_EQ(tab.name(a), "alpha");
  EXPECT_EQ(tab.name(3), "?");  // below base
}

// --- Trace file round trip -------------------------------------------------

TEST(TraceFileTest, RoundTripPreservesEverything) {
  TraceCapture cap;
  cap.records.push_back(rec(100, 0, Cat::kBleAdv));
  cap.records.push_back(rec(200, 1, Cat::kOpData));
  cap.records.back().phase = static_cast<std::uint8_t>(Phase::kAsyncBegin);
  cap.records.back().a0 = 7;
  cap.records.back().a1 = 1234;
  cap.records.back().tech = 2;
  cap.categories.emplace_back(kCatCount, "custom.cat");
  cap.owner_names.emplace_back(0, "alice");
  cap.owner_names.emplace_back(1, "bob");
  cap.dropped = 3;

  std::stringstream ss;
  write_trace_file(ss, cap);
  TraceCapture back;
  ASSERT_TRUE(read_trace_file(ss, back));
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[1].t_us, 200);
  EXPECT_EQ(back.records[1].a1, 1234u);
  EXPECT_EQ(back.records[1].tech, 2);
  EXPECT_EQ(back.dropped, 3u);
  EXPECT_EQ(back.category_name(static_cast<std::uint16_t>(Cat::kBleAdv)),
            "ble.adv");
  EXPECT_EQ(back.category_name(kCatCount), "custom.cat");
  EXPECT_EQ(back.owner_name(0), "alice");
  EXPECT_EQ(back.owner_name(1), "bob");
  EXPECT_EQ(back.owner_name(9), "node9");  // fallback
}

TEST(TraceFileTest, RejectsCorruptHeader) {
  std::stringstream ss;
  ss << "NOTATRACE-file-at-all";
  TraceCapture cap;
  EXPECT_FALSE(read_trace_file(ss, cap));
}

// --- Testbed integration ---------------------------------------------------

TEST(OmniscopeTest, ScopeIsNullUntilEnabled) {
  net::Testbed bed(1);
  EXPECT_EQ(OMNI_SCOPE(bed.simulator()), nullptr);
  Omniscope& sc = bed.enable_observability();
  EXPECT_EQ(OMNI_SCOPE(bed.simulator()), &sc);
  // Idempotent: the second call returns the same scope.
  EXPECT_EQ(&bed.enable_observability(), &sc);
  // A published scope records; detaching is the only way to stop it.
  sc.detach();
  EXPECT_EQ(OMNI_SCOPE(bed.simulator()), nullptr);
}

TEST(OmniscopeTest, DevicesGetOwnerNamesEitherSideOfEnable) {
  net::Testbed bed(1);
  bed.add_device("early", {0, 0});
  Omniscope& sc = bed.enable_observability();
  bed.add_device("late", {10, 0});
  bool saw_early = false, saw_late = false;
  for (const auto& [owner, name] : sc.owner_names()) {
    if (name == "early") saw_early = true;
    if (name == "late") saw_late = true;
  }
  EXPECT_TRUE(saw_early);
  EXPECT_TRUE(saw_late);
}

// The scope reports the same run whether it is attached before the devices
// exist or after: owner storage grows as devices arrive without changing
// what the metrics and the trace say.
TEST(OmniscopeTest, AttachBeforeOrAfterDevicesReportsTheSame) {
  auto run = [](bool attach_first) {
    net::Testbed bed(3);
    if (attach_first) bed.enable_observability();
    std::vector<std::unique_ptr<OmniNode>> nodes;
    for (int i = 0; i < 200; ++i) {
      net::Device& dev = bed.add_device(
          "n" + std::to_string(i), {25.0 * (i % 15), 25.0 * (i / 15)});
      nodes.push_back(std::make_unique<OmniNode>(dev, bed.mesh()));
    }
    Omniscope& sc = bed.enable_observability();
    for (auto& node : nodes) node->start();
    bed.simulator().run_for(Duration::seconds(5));
    std::ostringstream json;
    write_perfetto_json(json, capture(sc), bed.export_options());
    return std::make_pair(sc.metrics_dump(), json.str());
  };
  const auto before = run(true);
  const auto after = run(false);
  EXPECT_EQ(before.first, after.first);
  EXPECT_EQ(before.second, after.second);
  EXPECT_NE(before.first.find("owner 199 ="), std::string::npos);
}

TEST(OmniscopeTest, BleBeaconingProducesRecordsAndCounters) {
  net::Testbed bed(1);
  Omniscope& sc = bed.enable_observability();
  bed.add_device("a", {0, 0});
  bed.add_device("b", {5, 0});
  bed.device(1).ble().set_scanning(true);
  auto adv = bed.device(0).ble().start_advertising(Bytes{0x01, 0x02},
                                                   Duration::millis(100));
  ASSERT_TRUE(adv.is_ok());
  bed.simulator().run_for(Duration::seconds(2));

  // Advertising instants attributed to the sender, receptions to the peer.
  EXPECT_GT(sc.metrics().counter_value(sc.core().ble_adv,
                                       bed.device(0).node()), 0u);
  EXPECT_GT(sc.metrics().counter_value(sc.core().ble_rx,
                                       bed.device(1).node()), 0u);
  TraceCapture cap = capture(sc);
  EXPECT_EQ(cap.dropped, 0u);
  bool saw_adv = false;
  for (const auto& r : cap.records) {
    if (r.cat == static_cast<std::uint16_t>(Cat::kBleAdv)) saw_adv = true;
  }
  EXPECT_TRUE(saw_adv);
}

TEST(OmniscopeTest, EnergyLedgerEqualsMeterPerRailAtEveryFlush) {
  net::Testbed bed(1);
  Omniscope& sc = bed.enable_observability();
  net::Device& a = bed.add_device("a", {0, 0});
  net::Device& b = bed.add_device("b", {5, 0});
  auto adv = a.ble().start_advertising(Bytes{0x42}, Duration::millis(100));
  ASSERT_TRUE(adv.is_ok());
  b.wifi().set_powered(true);
  sim::Simulator& sim = bed.simulator();

  // After each flush every rail's ledger cell holds the meter's total over
  // [origin, now] on that rail, rounded to the micro-amp-second.
  auto expect_ledger_equals_meter = [&](const char* when) {
    sc.flush();
    const TimePoint now = sim.now();
    for (std::size_t i = 0; i < bed.device_count(); ++i) {
      net::Device& dev = bed.device(i);
      for (std::size_t r = 0; r < kEnergyRailCount; ++r) {
        const auto rail = static_cast<EnergyRail>(r);
        const std::int64_t meter = std::llround(
            1000.0 * dev.meter().total_mAs(TimePoint::origin(), now, rail));
        const auto ledger = static_cast<std::int64_t>(
            sc.metrics().counter_value(sc.energy().rail_metric(rail),
                                       dev.node()));
        EXPECT_EQ(ledger, meter) << when << ": node " << dev.node()
                                 << " rail " << rail_name(rail);
      }
    }
  };

  // A BLE pulse straddling the flush: only its elapsed part is mirrored.
  sim.run_for(Duration::seconds(10));
  TimePoint now = sim.now();
  a.meter().charge(now - Duration::millis(2), now + Duration::millis(3), 8.2,
                   EnergyRail::kBle);
  expect_ledger_equals_meter("straddling pulse");

  // A busy span back-dated to before the previous flush.
  sim.run_for(Duration::seconds(5));
  ASSERT_GT(b.wifi().tx_charger().charge_active(
                sim.now() - Duration::seconds(8), sim.now(), 1.5),
            0.0);
  expect_ledger_equals_meter("back-dated busy span");

  // Levels that change between flushes.
  sim.run_for(Duration::seconds(5));
  b.wifi().set_powered(false);
  b.ble().set_scanning(true, 0.5);
  sim.run_for(Duration::seconds(5));
  expect_ledger_equals_meter("level change");

  // 20,000 pulses of 1e-4 uAs each: none is worth a micro-amp-second on its
  // own, together they are 2.
  now = sim.now();
  for (std::int64_t i = 0; i < 20'000; ++i) {
    b.meter().charge(now + Duration::micros(10 * i),
                     now + Duration::micros(10 * i + 1), 0.1,
                     EnergyRail::kNan);
  }
  sim.run_for(Duration::seconds(1));
  expect_ledger_equals_meter("sub-uAs pulses");
  EXPECT_EQ(sc.metrics().counter_value(
                sc.energy().rail_metric(EnergyRail::kNan), b.node()),
            2u);
  // BLE charge lands on the BLE rail, not the catch-all.
  EXPECT_GT(sc.energy().rail_mAs(a.node(), EnergyRail::kBle), 0.0);
}

TEST(OmniscopeTest, MetricsDumpIsStableAcrossCaptures) {
  net::Testbed bed(1);
  Omniscope& sc = bed.enable_observability();
  bed.add_device("a", {0, 0});
  auto adv = bed.device(0).ble().start_advertising(Bytes{0x01},
                                                   Duration::millis(200));
  ASSERT_TRUE(adv.is_ok());
  bed.simulator().run_for(Duration::seconds(1));
  std::string d1 = sc.metrics_dump();
  std::string d2 = sc.metrics_dump();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1.find("radio.ble.adv_events"), std::string::npos);
}

// --- Perfetto export -------------------------------------------------------

TEST(PerfettoTest, ExportsLoadableTraceEventJson) {
  net::Testbed bed(1);
  Omniscope& sc = bed.enable_observability();
  bed.add_device("a", {0, 0});
  bed.add_device("b", {5, 0});
  bed.device(1).ble().set_scanning(true);
  auto adv = bed.device(0).ble().start_advertising(Bytes{0x01},
                                                   Duration::millis(100));
  ASSERT_TRUE(adv.is_ok());
  bed.simulator().run_for(Duration::seconds(1));

  TraceCapture cap = capture(sc);
  ASSERT_FALSE(cap.records.empty());
  ExportOptions opts;
  opts.annotations.push_back(AnnotationSpan{"test window", 0, 500000});
  std::ostringstream os;
  write_perfetto_json(os, cap, opts);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"a\""), std::string::npos);  // node process name
  EXPECT_NE(json.find("ble.adv"), std::string::npos);
  EXPECT_NE(json.find("test window"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity for a JSON body.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --- Scenario directive ----------------------------------------------------

TEST(ScenarioObsTest, DumpTraceDirectiveWritesReadableFile) {
  const std::string path = testing::TempDir() + "/omni_obs_test.otr";
  std::remove(path.c_str());
  const std::string script =
      "seed 3\n"
      "device a 0 0\n"
      "device b 10 0\n"
      "advertise a hello interval=500ms\n"
      "run 10s\n"
      "dump trace " + path + "\n";
  std::string out = scenario::run_scenario_text(script);
  EXPECT_EQ(out.find("error"), std::string::npos) << out;

  TraceCapture cap;
  ASSERT_TRUE(read_trace_file(path, cap));
  EXPECT_FALSE(cap.records.empty());
  bool named = false;
  for (const auto& [owner, name] : cap.owner_names) {
    if (name == "a" || name == "b") named = true;
  }
  EXPECT_TRUE(named);
  std::remove(path.c_str());
}

TEST(ScenarioObsTest, DumpTraceJsonWritesPerfetto) {
  const std::string path = testing::TempDir() + "/omni_obs_test.json";
  std::remove(path.c_str());
  const std::string script =
      "seed 3\n"
      "device a 0 0\n"
      "device b 10 0\n"
      "advertise a hello interval=500ms\n"
      "blackout b at=2s until=4s radio=ble\n"
      "run 10s\n"
      "dump trace " + path + "\n";
  std::string out = scenario::run_scenario_text(script);
  EXPECT_EQ(out.find("error"), std::string::npos) << out;

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
  // The scripted blackout renders as a labelled fault-window span.
  EXPECT_NE(os.str().find("blackout b"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace omni::obs
