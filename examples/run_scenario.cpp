// Scenario-runner CLI: execute an Omni scenario script.
//
//   $ ./examples/run_scenario path/to/scenario.txt
//   $ ./examples/run_scenario --threads 8 path/to/scenario.txt
//   $ ./examples/run_scenario            # runs the built-in demo scenario
//
// --threads N runs the parallel sharded engine; the report is bit-identical
// at any thread count. See src/scenario/scenario.h for the DSL reference.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "scenario/scenario.h"

namespace {

const char* kDemoScenario = R"(# Built-in demo: a tourist walks past a relayed beacon chain.
seed 7
device tourist 0 0 ble wifi
device townhall 35 0 ble wifi multicast relay=1
device museum 70 0 ble wifi multicast relay=1

service townhall 3 townhall
service museum 3 museum
advertise tourist interest:viz

run 6s
report

# The museum (out of BLE range) pushes media once the tourist's relayed
# interest reaches it; the tourist also walks toward it.
send museum tourist at=8s bytes=2000000
walk tourist at=7s to=55,0 speed=1.5
run 30s
report
)";

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 1;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads needs a count\n");
        return 1;
      }
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 1;
      }
      threads = static_cast<unsigned>(v);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [scenario-file]\n",
                   argv[0]);
      return 1;
    }
  }

  std::string text;
  if (path != nullptr) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open '%s'\n", path);
      return 1;
    }
    std::ostringstream ss;
    ss << file.rdbuf();
    text = ss.str();
  } else {
    std::printf("(no scenario file given; running the built-in demo)\n\n");
    text = kDemoScenario;
  }

  auto parsed = omni::scenario::Scenario::parse(text);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.error_message().c_str());
    return 1;
  }
  std::printf("scenario: %zu devices, %zu instructions\n\n",
              parsed.value()->device_count(),
              parsed.value()->instruction_count());
  omni::Status s = parsed.value()->run(std::cout, threads);
  if (!s.is_ok()) {
    std::fprintf(stderr, "run error: %s\n", s.message().c_str());
    return 1;
  }
  return 0;
}
