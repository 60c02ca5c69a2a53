// Golden-trace determinism: the Figure 3 tourist scenario, run from its
// checked-in script at a fixed seed, must reproduce this exact report —
// byte for byte — on every machine and after every refactor.
//
// This is the repo's strongest regression oracle: the report folds together
// discovery counts, energy integrals, technology selection and data
// delivery across five devices and two minutes of simulated time, so any
// change to event ordering, RNG draw order, or protocol behavior shows up
// as a diff. Perf work on the sim core (slab event queue, zero-delay FIFO,
// spatial grid, allocation-free receive path) is required to keep this
// trace bit-identical.
//
// If a deliberate behavior change invalidates the trace, regenerate it with
//   ./examples/run_scenario examples/scenarios/tourist.scn
// and update kGoldenReport with the new report blocks (and say why in the
// commit message).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenario/scenario.h"

namespace omni::scenario {
namespace {

constexpr const char* kScenarioPath =
    OMNI_REPO_DIR "/examples/scenarios/tourist.scn";

constexpr const char* kGoldenReport =
    "=== report t=45s ===\n"
    "  guide: peers=3 avg_mA=100.201 rx_ctx=230 rx_data=0 sends=0/0\n"
    "  tourist1: peers=3 avg_mA=100.363 rx_ctx=139 rx_data=0 sends=0/0\n"
    "  tourist2: peers=3 avg_mA=100.363 rx_ctx=134 rx_data=0 sends=0/0\n"
    "  townhall: peers=3 avg_mA=108.769 rx_ctx=117 rx_data=0 sends=0/0\n"
    "  cathedral: peers=0 avg_mA=108.769 rx_ctx=0 rx_data=0 sends=0/0\n"
    "=== report t=120s ===\n"
    "  guide: peers=3 avg_mA=99.6154 rx_ctx=640 rx_data=0 sends=0/0\n"
    "  tourist1: peers=3 avg_mA=100.72 rx_ctx=422 rx_data=1 sends=0/0\n"
    "  tourist2: peers=3 avg_mA=100.72 rx_ctx=410 rx_data=1 sends=0/0\n"
    "  townhall: peers=0 avg_mA=107.181 rx_ctx=245 rx_data=0 sends=2/2\n"
    "  cathedral: peers=3 avg_mA=105.825 rx_ctx=150 rx_data=0 sends=0/0\n";

std::string read_scenario() {
  std::ifstream in(kScenarioPath);
  EXPECT_TRUE(in.good()) << "cannot open " << kScenarioPath;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(GoldenTraceTest, TouristScenarioMatchesGoldenReport) {
  std::string report = run_scenario_text(read_scenario());
  EXPECT_EQ(report, kGoldenReport);
}

// Observability must be a pure observer: attaching an Omniscope (metrics,
// flight recorder, energy gauges all live) cannot move a single event,
// RNG draw, or float, so the report stays byte-identical to the golden.
TEST(GoldenTraceTest, InstrumentedRunMatchesGoldenReport) {
  std::string report =
      run_scenario_text(read_scenario(), /*threads=*/1, /*observe=*/true);
  EXPECT_EQ(report, kGoldenReport);
}

TEST(GoldenTraceTest, TouristScenarioIsRunToRunDeterministic) {
  std::string script = read_scenario();
  EXPECT_EQ(run_scenario_text(script), run_scenario_text(script));
}

}  // namespace
}  // namespace omni::scenario
