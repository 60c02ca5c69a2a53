// Scenario DSL: script Omni experiments without writing C++.
//
// A scenario is a line-oriented script ('#' starts a comment):
//
//   seed 42
//   device tourist 0 0                 # BLE + WiFi-unicast (the default)
//   device beacon 30 5 ble wifi multicast
//   device embedded 60 0 wifi multicast      # no BLE
//   device kiosk 90 0 wifi aware              # WiFi-Aware context carrier
//   advertise tourist interest:viz interval=500ms
//   service beacon 3 townhall                # typed service descriptor
//   walk tourist at=5s to=30,0 speed=1.4
//   teleport tourist at=40s to=60,0
//   send beacon tourist at=12s bytes=2000000
//   poweroff embedded at=50s all
//   linkfault src=beacon loss=0.2 corrupt=0.02 at=10s until=30s
//   partition line=1,0,45 at=20s until=40s    # cuts the plane at x=45
//   blackout kiosk at=15s until=25s radio=wifi
//   flap beacon at=10s until=30s period=2s off=0.5
//   crash embedded at=20s restart=35s         # fresh BLE address on reboot
//   discovery adaptive floor=500ms ceiling=8s  # density-aware beaconing
//   checkpoint every 5s ckpts           # periodic .osnap state checkpoints
//   run 60s
//   report
//   snapshot final.osnap                # one-shot state snapshot here
//   dump trace out.json                # Perfetto JSON (.otr = binary)
//
// `run` advances virtual time; `report` prints a per-device summary (peers,
// average current, manager statistics). Multiple run/report blocks may be
// interleaved. Parsing is strict: any unknown directive or malformed
// argument is an error with a line number.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"

namespace omni::scenario {

/// A parsed, runnable scenario.
class Scenario {
 public:
  /// Parse the script; returns an error naming the first bad line.
  static Result<std::unique_ptr<Scenario>> parse(const std::string& text);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
  ~Scenario();

  /// Execute the scenario, writing report blocks to `out`. `threads` > 1
  /// runs the parallel engine; the report is bit-identical at any count.
  /// `observe` attaches an Omniscope even when the script has no
  /// `dump trace` directive — instrumentation never changes the report
  /// (tests/test_golden_trace.cpp holds this as an invariant).
  /// Returns an error if execution hits an impossible instruction (e.g. a
  /// send between devices that never discovered each other is fine — it
  /// reports a failed send — but an unknown device name is not).
  ///
  /// `resume_path` anchors the run to an .osnap snapshot written by a
  /// previous execution of the *same* script (a `snapshot <path>` directive
  /// or a `checkpoint every` file): the run replays from time zero and
  /// byte-verifies its recomputed state against the file when it reaches the
  /// snapshot instant, erroring out on any divergence — including a snapshot
  /// captured at a different --threads count.
  Status run(std::ostream& out, unsigned threads = 1, bool observe = false,
             const std::string& resume_path = {});

  // Introspection for tests.
  std::size_t device_count() const;
  std::size_t instruction_count() const;

 private:
  Scenario();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: parse + run, returning the report (or the error message).
std::string run_scenario_text(const std::string& text, unsigned threads = 1,
                              bool observe = false);

}  // namespace omni::scenario
