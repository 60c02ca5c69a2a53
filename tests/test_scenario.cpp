// The scenario DSL: parser strictness and end-to-end execution.
#include <gtest/gtest.h>

#include "scenario/scenario.h"

namespace omni::scenario {
namespace {

TEST(ScenarioParseTest, MinimalValid) {
  auto s = Scenario::parse("device a 0 0\nrun 1s\n");
  ASSERT_TRUE(s.is_ok()) << s.error_message();
  EXPECT_EQ(s.value()->device_count(), 1u);
  EXPECT_EQ(s.value()->instruction_count(), 1u);
}

TEST(ScenarioParseTest, CommentsAndBlankLines) {
  auto s = Scenario::parse(
      "# a comment\n"
      "\n"
      "device a 0 0   # trailing comment\n"
      "run 1s\n");
  ASSERT_TRUE(s.is_ok()) << s.error_message();
}

TEST(ScenarioParseTest, ErrorsCarryLineNumbers) {
  auto s = Scenario::parse("device a 0 0\nbogus directive\n");
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.error_message().find("line 2"), std::string::npos);
}

TEST(ScenarioParseTest, RejectsBadInputs) {
  EXPECT_FALSE(Scenario::parse("").is_ok());  // no devices
  EXPECT_FALSE(Scenario::parse("device a zero 0\n").is_ok());
  EXPECT_FALSE(Scenario::parse("device a 0 0\ndevice a 1 1\n").is_ok());
  EXPECT_FALSE(Scenario::parse("device a 0 0 hovercraft\n").is_ok());
  EXPECT_FALSE(Scenario::parse("device a 0 0\nrun fast\n").is_ok());
  EXPECT_FALSE(Scenario::parse("device a 0 0\nadvertise ghost hi\n").is_ok());
  EXPECT_FALSE(
      Scenario::parse("device a 0 0\nwalk a to=1,1 speed=1\n").is_ok());
  EXPECT_FALSE(
      Scenario::parse("device a 0 0\ndevice b 1 0\nsend a b at=1s\n")
          .is_ok());
  EXPECT_FALSE(Scenario::parse("device a 0 0\npoweroff a at=1s toaster\n")
                   .is_ok());
}

// ManagerOptions::beacon_interval must span at least one BLE advertising
// event (10 ms); the DSL's `floor=` sets it, so a shorter floor is a parse
// error naming the line, under either policy.
TEST(ScenarioParseTest, DiscoveryFloorBelowOneAdvertisingEventRejected) {
  for (const std::string mode : {"fixed", "adaptive"}) {
    for (const std::string floor : {"1ms", "9ms"}) {
      auto s = Scenario::parse("device a 0 0\ndevice b 10 0\ndiscovery " +
                               mode + " floor=" + floor + "\nrun 3s\n");
      ASSERT_FALSE(s.is_ok()) << mode << " floor=" << floor;
      EXPECT_NE(s.error_message().find("line 3"), std::string::npos)
          << s.error_message();
      EXPECT_NE(s.error_message().find("floor"), std::string::npos)
          << s.error_message();
    }
    auto ok = Scenario::parse("device a 0 0\ndiscovery " + mode +
                              " floor=10ms\nrun 1s\n");
    EXPECT_TRUE(ok.is_ok()) << mode << ": " << ok.error_message();
  }
}

TEST(ScenarioParseTest, DurationsAndPositions) {
  auto s = Scenario::parse(
      "device a 0 0\n"
      "device b 5 5\n"
      "advertise a hello interval=250ms\n"
      "walk a at=1.5s to=10,20 speed=2.5\n"
      "teleport b at=2s to=-5,0\n"
      "send a b at=3s bytes=1000\n"
      "run 5s\n");
  ASSERT_TRUE(s.is_ok()) << s.error_message();
  EXPECT_EQ(s.value()->instruction_count(), 5u);
}

TEST(ScenarioRunTest, DiscoveryAndDataDelivery) {
  std::string report = run_scenario_text(
      "seed 5\n"
      "device a 0 0\n"
      "device b 10 0\n"
      "advertise a hi\n"
      "run 3s\n"
      "send a b at=4s bytes=5000\n"
      "run 5s\n"
      "report\n");
  // b received the data; both peers discovered.
  EXPECT_NE(report.find("a: peers=1"), std::string::npos) << report;
  EXPECT_NE(report.find("b: peers=1"), std::string::npos) << report;
  EXPECT_NE(report.find("rx_data=1"), std::string::npos) << report;
  EXPECT_NE(report.find("sends=1/1"), std::string::npos) << report;
}

TEST(ScenarioRunTest, SendBeforeDiscoveryFails) {
  std::string report = run_scenario_text(
      "device a 0 0\n"
      "device b 10 0\n"
      "send a b at=0.1s bytes=100\n"  // before any beacon round
      "run 3s\n"
      "report\n");
  EXPECT_NE(report.find("sends=0/1"), std::string::npos) << report;
}

TEST(ScenarioRunTest, PoweroffSilencesDevice) {
  std::string report = run_scenario_text(
      "device a 0 0\n"
      "device b 10 0\n"
      "run 3s\n"
      "poweroff b at=3s all\n"
      "run 15s\n"  // > peer TTL
      "report\n");
  EXPECT_NE(report.find("a: peers=0"), std::string::npos) << report;
}

TEST(ScenarioRunTest, MobilityBringsDevicesIntoRange) {
  std::string report = run_scenario_text(
      "device a 0 0\n"
      "device b 500 0\n"
      "run 2s\n"
      "teleport b at=2s to=10,0\n"
      "run 3s\n"
      "report\n");
  EXPECT_NE(report.find("a: peers=1"), std::string::npos) << report;
}

TEST(ScenarioRunTest, ServiceDirectiveAdvertises) {
  std::string report = run_scenario_text(
      "device provider 0 0\n"
      "device client 10 0\n"
      "service provider 3 townhall\n"
      "run 3s\n"
      "report\n");
  // The client received the descriptor as context.
  EXPECT_NE(report.find("client: peers=1"), std::string::npos) << report;
  std::size_t pos = report.find("client:");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(report.find("rx_ctx=0", pos), std::string::npos) << report;
}

TEST(ScenarioRunTest, DeterministicReports) {
  const std::string script =
      "seed 99\n"
      "device a 0 0\n"
      "device b 10 0\n"
      "advertise a ping\n"
      "run 10s\n"
      "report\n";
  EXPECT_EQ(run_scenario_text(script), run_scenario_text(script));
}


TEST(ScenarioRunTest, WifiAwareDevicesInteroperate) {
  std::string report = run_scenario_text(
      "device a 0 0 wifi aware\n"
      "device b 60 0 wifi aware\n"   // beyond BLE range; NAN carries context
      "run 3s\n"
      "send a b at=3.5s bytes=5000\n"
      "run 3s\n"
      "report\n");
  EXPECT_NE(report.find("a: peers=1"), std::string::npos) << report;
  EXPECT_NE(report.find("sends=1/1"), std::string::npos) << report;
}

}  // namespace
}  // namespace omni::scenario
