#include "scenario/scenario.h"

#include <array>
#include <charconv>
#include <deque>
#include <variant>
#include <optional>
#include <ostream>
#include <sstream>

#include "baselines/omni_stack.h"
#include "common/hash.h"
#include "net/testbed.h"
#include "obs/omniscope.h"
#include "obs/perfetto.h"
#include "obs/trace_file.h"
#include "omni/manager_snapshot.h"
#include "omni/omni_node.h"
#include "omni/service.h"
#include "sim/snapshot.h"

namespace omni::scenario {

namespace {

/// Scenario timed instructions (walk/send/power) as kEventScenarioTimer
/// descriptors: each instruction body is stored here (deque — stable
/// addresses) and named by a callback slot, so the pending timer in the
/// event slab is a 4-byte descriptor rather than a captured closure. Slots
/// are released when the run ends; a straggler descriptor then degrades to
/// a deterministic no-op instead of a dangling capture.
class ScenarioTimers {
 public:
  explicit ScenarioTimers(sim::Simulator& sim) : sim_(sim) {}
  ~ScenarioTimers() {
    for (std::uint32_t slot : slots_) sim_.unregister_callback_slot(slot);
  }
  ScenarioTimers(const ScenarioTimers&) = delete;
  ScenarioTimers& operator=(const ScenarioTimers&) = delete;

  void at(TimePoint when, std::function<void()> body) {
    bodies_.push_back(std::move(body));
    std::uint32_t slot =
        sim_.register_callback_slot(&bodies_.back(), &ScenarioTimers::invoke);
    slots_.push_back(slot);
    unsigned char p[sizeof slot];
    std::memcpy(p, &slot, sizeof slot);
    sim_.schedule_desc_at_on(sim_.current_owner(), when,
                             sim::kEventScenarioTimer, p, sizeof slot);
  }

 private:
  static void invoke(void* ctx) {
    (*static_cast<std::function<void()>*>(ctx))();
  }

  sim::Simulator& sim_;
  std::deque<std::function<void()>> bodies_;
  std::vector<std::uint32_t> slots_;
};

// --- Tokenizing / argument parsing -------------------------------------------

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

std::optional<double> parse_double(const std::string& s) {
  try {
    std::size_t used = 0;
    double v = std::stod(s, &used);
    if (used != s.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return std::nullopt;
  return v;
}

/// "500ms", "5s", "2.5s", "90us"
std::optional<Duration> parse_duration(const std::string& s) {
  auto ends_with = [&](const char* suffix) {
    std::string suf(suffix);
    return s.size() > suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
  };
  std::string number;
  double scale = 0;
  if (ends_with("ms")) {
    number = s.substr(0, s.size() - 2);
    scale = 1e-3;
  } else if (ends_with("us")) {
    number = s.substr(0, s.size() - 2);
    scale = 1e-6;
  } else if (ends_with("s")) {
    number = s.substr(0, s.size() - 1);
    scale = 1.0;
  } else {
    return std::nullopt;
  }
  auto v = parse_double(number);
  if (!v || *v < 0) return std::nullopt;
  return Duration::seconds(*v * scale);
}

/// "x,y"
std::optional<sim::Vec2> parse_position(const std::string& s) {
  auto comma = s.find(',');
  if (comma == std::string::npos) return std::nullopt;
  auto x = parse_double(s.substr(0, comma));
  auto y = parse_double(s.substr(comma + 1));
  if (!x || !y) return std::nullopt;
  return sim::Vec2{*x, *y};
}

/// Splits "key=value" -> {key, value}.
std::optional<std::pair<std::string, std::string>> parse_kv(
    const std::string& s) {
  auto eq = s.find('=');
  if (eq == std::string::npos || eq == 0) return std::nullopt;
  return std::make_pair(s.substr(0, eq), s.substr(eq + 1));
}

/// "a,b,c" -> three doubles (a partition line a*x + b*y = c).
std::optional<std::array<double, 3>> parse_triple(const std::string& s) {
  auto c1 = s.find(',');
  if (c1 == std::string::npos) return std::nullopt;
  auto c2 = s.find(',', c1 + 1);
  if (c2 == std::string::npos) return std::nullopt;
  auto a = parse_double(s.substr(0, c1));
  auto b = parse_double(s.substr(c1 + 1, c2 - c1 - 1));
  auto c = parse_double(s.substr(c2 + 1));
  if (!a || !b || !c) return std::nullopt;
  return std::array<double, 3>{*a, *b, *c};
}

std::optional<sim::FaultRadio> parse_fault_radio(const std::string& s) {
  if (s == "all") return sim::FaultRadio::kAll;
  if (s == "ble") return sim::FaultRadio::kBle;
  if (s == "wifi") return sim::FaultRadio::kWifi;
  if (s == "nan") return sim::FaultRadio::kNan;
  return std::nullopt;
}

// --- Instruction set ----------------------------------------------------------

struct DeviceDecl {
  std::string name;
  sim::Vec2 position;
  OmniNodeOptions options;
};

struct AdvertiseInstr {
  std::string device;
  Bytes payload;
  Duration interval = Duration::millis(500);
};

struct ServiceInstr {
  std::string device;
  std::uint16_t type = 0;
  std::string service_name;
  Duration interval = Duration::millis(500);
};

struct WalkInstr {
  std::string device;
  TimePoint at;
  sim::Vec2 to;
  double speed = 1.0;
  bool teleport = false;
};

struct SendInstr {
  std::string from;
  std::string to;
  TimePoint at;
  std::uint64_t bytes = 0;
};

struct PowerInstr {
  std::string device;
  TimePoint at;
  bool ble = false;
  bool wifi = false;
};

struct RunInstr {
  Duration duration;
};

struct ReportInstr {};

/// `dump trace <path>` — write the flight-recorder capture accumulated so
/// far. A `.json` extension exports Chrome trace_event JSON for
/// ui.perfetto.dev; anything else writes the binary .otr format that the
/// `omniscope` CLI reads.
struct DumpTraceInstr {
  std::string path;
};

/// `snapshot <path>` — capture the full deterministic run state at this point
/// of the script and write an .osnap file (see sim/snapshot.h). Two runs of
/// the script compare with `omnisnap diff --state`.
struct SnapshotInstr {
  std::string path;
};

using Instr =
    std::variant<AdvertiseInstr, ServiceInstr, WalkInstr, SendInstr,
                 PowerInstr, RunInstr, ReportInstr, DumpTraceInstr,
                 SnapshotInstr>;

// Fault declarations keep device *names*; node ids are resolved at run()
// time, when the testbed has assigned them. An empty name means "any node".
struct LinkFaultDecl {
  std::string src;  ///< empty = any
  std::string dst;  ///< empty = any
  sim::FaultPlan::LinkFault fault;
};

struct PartitionDecl {
  sim::FaultPlan::Partition partition;
};

struct BlackoutDecl {
  std::string device;
  sim::FaultPlan::Blackout blackout;
};

struct CrashDecl {
  std::string device;
  sim::FaultPlan::Crash crash;
};

}  // namespace

// --- Scenario implementation ---------------------------------------------------

struct Scenario::Impl {
  std::uint64_t seed = 1;
  /// Any `dump trace` directive turns the Omniscope on for the whole run.
  bool wants_observability = false;
  /// Original script source + fnv1a64 fingerprint, embedded in snapshot
  /// manifests so an .osnap file pins the exact script that produced it.
  std::string source_text;
  std::uint64_t source_hash = 0;
  /// `checkpoint every <dur> [dir]` — zero interval means no checkpointing.
  Duration checkpoint_interval = Duration::zero();
  std::string checkpoint_dir = ".";
  /// Run-wide discovery scheduling (`discovery` directive): the policy and
  /// every device's beacon interval (its `floor=`). The defaults reproduce
  /// the paper's fixed 500 ms cadence exactly.
  DiscoveryPolicy discovery;
  Duration beacon_interval = ManagerOptions().beacon_interval;
  std::vector<DeviceDecl> devices;
  std::vector<Instr> instructions;
  // Fault schedule (declarative; applied before the first run block).
  std::vector<LinkFaultDecl> link_faults;
  std::vector<PartitionDecl> partitions;
  std::vector<BlackoutDecl> blackouts;
  std::vector<CrashDecl> crashes;

  // Runtime state (created by run()).
  struct LiveDevice {
    net::Device* device = nullptr;
    std::unique_ptr<OmniNode> node;
    std::unique_ptr<ServicePublisher> service;
    ContextId advert = kInvalidContext;
    std::uint64_t data_received = 0;
    std::uint64_t sends_ok = 0;
    std::uint64_t sends_failed = 0;
  };

  int find_device(const std::string& name) const {
    for (std::size_t i = 0; i < devices.size(); ++i) {
      if (devices[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
};

Scenario::Scenario() : impl_(std::make_unique<Impl>()) {}
Scenario::~Scenario() = default;

std::size_t Scenario::device_count() const { return impl_->devices.size(); }
std::size_t Scenario::instruction_count() const {
  return impl_->instructions.size();
}

Result<std::unique_ptr<Scenario>> Scenario::parse(const std::string& text) {
  auto scenario = std::unique_ptr<Scenario>(new Scenario());
  Impl& impl = *scenario->impl_;
  impl.source_text = text;
  impl.source_hash = fnv1a64(text);

  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  auto error = [&](const std::string& why) {
    return Result<std::unique_ptr<Scenario>>::error(
        "line " + std::to_string(line_no) + ": " + why);
  };

  while (std::getline(is, line)) {
    ++line_no;
    auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& op = tokens[0];

    if (op == "seed") {
      if (tokens.size() != 2) return error("seed takes one integer");
      auto v = parse_u64(tokens[1]);
      if (!v) return error("bad seed '" + tokens[1] + "'");
      impl.seed = *v;

    } else if (op == "device") {
      if (tokens.size() < 4) return error("device <name> <x> <y> [flags]");
      DeviceDecl decl;
      decl.name = tokens[1];
      if (impl.find_device(decl.name) >= 0) {
        return error("duplicate device '" + decl.name + "'");
      }
      auto x = parse_double(tokens[2]);
      auto y = parse_double(tokens[3]);
      if (!x || !y) return error("bad position");
      decl.position = {*x, *y};
      if (tokens.size() > 4) {
        // Explicit technology set.
        decl.options.ble = false;
        decl.options.wifi_unicast = false;
        decl.options.wifi_multicast = false;
        for (std::size_t i = 4; i < tokens.size(); ++i) {
          const std::string& flag = tokens[i];
          if (flag == "ble") {
            decl.options.ble = true;
          } else if (flag == "wifi") {
            decl.options.wifi_unicast = true;
          } else if (flag == "multicast") {
            decl.options.wifi_multicast = true;
          } else if (flag == "aware") {
            decl.options.wifi_aware = true;
          } else if (auto kv = parse_kv(flag); kv && kv->first == "relay") {
            auto hops = parse_u64(kv->second);
            if (!hops) return error("bad relay hop count");
            decl.options.manager.context_relay_hops =
                static_cast<int>(*hops);
          } else if (auto kv2 = parse_kv(flag); kv2 && kv2->first == "key") {
            decl.options.manager.context_key =
                Bytes(kv2->second.begin(), kv2->second.end());
          } else {
            return error("unknown device flag '" + flag + "'");
          }
        }
        if (!decl.options.ble && !decl.options.wifi_unicast &&
            !decl.options.wifi_multicast && !decl.options.wifi_aware) {
          return error("device '" + decl.name + "' has no technologies");
        }
      }
      impl.devices.push_back(std::move(decl));

    } else if (op == "advertise") {
      if (tokens.size() < 3) {
        return error("advertise <device> <payload> [interval=..]");
      }
      AdvertiseInstr instr;
      instr.device = tokens[1];
      if (impl.find_device(instr.device) < 0) {
        return error("unknown device '" + instr.device + "'");
      }
      instr.payload = Bytes(tokens[2].begin(), tokens[2].end());
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        auto kv = parse_kv(tokens[i]);
        if (kv && kv->first == "interval") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad interval");
          instr.interval = *d;
        } else {
          return error("unknown argument '" + tokens[i] + "'");
        }
      }
      impl.instructions.emplace_back(std::move(instr));

    } else if (op == "service") {
      if (tokens.size() < 4) {
        return error("service <device> <type> <name> [interval=..]");
      }
      ServiceInstr instr;
      instr.device = tokens[1];
      if (impl.find_device(instr.device) < 0) {
        return error("unknown device '" + instr.device + "'");
      }
      auto type = parse_u64(tokens[2]);
      if (!type || *type > 0xFFFF) return error("bad service type");
      instr.type = static_cast<std::uint16_t>(*type);
      instr.service_name = tokens[3];
      impl.instructions.emplace_back(std::move(instr));

    } else if (op == "walk" || op == "teleport") {
      if (tokens.size() < 4) {
        return error(op + " <device> at=<t> to=<x,y> [speed=<mps>]");
      }
      WalkInstr instr;
      instr.teleport = op == "teleport";
      instr.device = tokens[1];
      if (impl.find_device(instr.device) < 0) {
        return error("unknown device '" + instr.device + "'");
      }
      bool have_at = false, have_to = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        auto kv = parse_kv(tokens[i]);
        if (!kv) return error("expected key=value, got '" + tokens[i] + "'");
        if (kv->first == "at") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          instr.at = TimePoint::origin() + *d;
          have_at = true;
        } else if (kv->first == "to") {
          auto p = parse_position(kv->second);
          if (!p) return error("bad target position");
          instr.to = *p;
          have_to = true;
        } else if (kv->first == "speed") {
          auto v = parse_double(kv->second);
          if (!v || *v <= 0) return error("bad speed");
          instr.speed = *v;
        } else {
          return error("unknown argument '" + kv->first + "'");
        }
      }
      if (!have_at || !have_to) return error(op + " needs at= and to=");
      impl.instructions.emplace_back(std::move(instr));

    } else if (op == "send") {
      if (tokens.size() < 5) {
        return error("send <from> <to> at=<t> bytes=<n>");
      }
      SendInstr instr;
      instr.from = tokens[1];
      instr.to = tokens[2];
      if (impl.find_device(instr.from) < 0 ||
          impl.find_device(instr.to) < 0) {
        return error("unknown device in send");
      }
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        auto kv = parse_kv(tokens[i]);
        if (!kv) return error("expected key=value");
        if (kv->first == "at") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          instr.at = TimePoint::origin() + *d;
        } else if (kv->first == "bytes") {
          auto v = parse_u64(kv->second);
          if (!v) return error("bad byte count");
          instr.bytes = *v;
        } else {
          return error("unknown argument '" + kv->first + "'");
        }
      }
      if (instr.bytes == 0) return error("send needs bytes=");
      impl.instructions.emplace_back(std::move(instr));

    } else if (op == "poweroff") {
      if (tokens.size() < 3) return error("poweroff <device> at=<t> [what]");
      PowerInstr instr;
      instr.device = tokens[1];
      if (impl.find_device(instr.device) < 0) {
        return error("unknown device '" + instr.device + "'");
      }
      std::string what = "all";
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (auto kv = parse_kv(tokens[i]); kv && kv->first == "at") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          instr.at = TimePoint::origin() + *d;
        } else {
          what = tokens[i];
        }
      }
      if (what == "ble") {
        instr.ble = true;
      } else if (what == "wifi") {
        instr.wifi = true;
      } else if (what == "all") {
        instr.ble = instr.wifi = true;
      } else {
        return error("poweroff target must be ble|wifi|all");
      }
      impl.instructions.emplace_back(std::move(instr));

    } else if (op == "linkfault") {
      // linkfault [src=<dev>] [dst=<dev>] [radio=all|ble|wifi|nan]
      //           [loss=<p>] [corrupt=<p>] [latency=<dur>]
      //           [at=<t>] [until=<t>]
      LinkFaultDecl decl;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        auto kv = parse_kv(tokens[i]);
        if (!kv) return error("expected key=value, got '" + tokens[i] + "'");
        if (kv->first == "src" || kv->first == "dst") {
          if (impl.find_device(kv->second) < 0) {
            return error("unknown device '" + kv->second + "'");
          }
          (kv->first == "src" ? decl.src : decl.dst) = kv->second;
        } else if (kv->first == "radio") {
          auto r = parse_fault_radio(kv->second);
          if (!r) return error("radio must be all|ble|wifi|nan");
          decl.fault.radio = *r;
        } else if (kv->first == "loss" || kv->first == "corrupt") {
          auto p = parse_double(kv->second);
          if (!p || *p < 0 || *p > 1) return error("bad probability");
          (kv->first == "loss" ? decl.fault.loss : decl.fault.corrupt) = *p;
        } else if (kv->first == "latency") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad latency");
          decl.fault.extra_latency = *d;
        } else if (kv->first == "at") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.fault.start = TimePoint::origin() + *d;
        } else if (kv->first == "until") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.fault.end = TimePoint::origin() + *d;
        } else {
          return error("unknown argument '" + kv->first + "'");
        }
      }
      if (decl.fault.loss == 0 && decl.fault.corrupt == 0 &&
          decl.fault.extra_latency.is_zero()) {
        return error("linkfault needs loss=, corrupt= or latency=");
      }
      impl.link_faults.push_back(std::move(decl));

    } else if (op == "partition") {
      // partition line=<a,b,c> [at=<t>] [until=<t>]   (cuts a*x + b*y = c)
      PartitionDecl decl;
      bool have_line = false;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        auto kv = parse_kv(tokens[i]);
        if (!kv) return error("expected key=value, got '" + tokens[i] + "'");
        if (kv->first == "line") {
          auto t = parse_triple(kv->second);
          if (!t) return error("line needs a,b,c");
          decl.partition.a = (*t)[0];
          decl.partition.b = (*t)[1];
          decl.partition.c = (*t)[2];
          have_line = true;
        } else if (kv->first == "at") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.partition.start = TimePoint::origin() + *d;
        } else if (kv->first == "until") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.partition.end = TimePoint::origin() + *d;
        } else {
          return error("unknown argument '" + kv->first + "'");
        }
      }
      if (!have_line) return error("partition needs line=a,b,c");
      impl.partitions.push_back(decl);

    } else if (op == "blackout" || op == "flap") {
      // blackout <device> at=<t> until=<t> [radio=..]
      // flap <device> at=<t> until=<t> period=<dur> [off=<frac>] [radio=..]
      if (tokens.size() < 2) return error(op + " <device> at=.. until=..");
      BlackoutDecl decl;
      decl.device = tokens[1];
      if (impl.find_device(decl.device) < 0) {
        return error("unknown device '" + decl.device + "'");
      }
      bool have_at = false, have_until = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        auto kv = parse_kv(tokens[i]);
        if (!kv) return error("expected key=value, got '" + tokens[i] + "'");
        if (kv->first == "at") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.blackout.start = TimePoint::origin() + *d;
          have_at = true;
        } else if (kv->first == "until") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.blackout.end = TimePoint::origin() + *d;
          have_until = true;
        } else if (kv->first == "period" && op == "flap") {
          auto d = parse_duration(kv->second);
          if (!d || d->is_zero()) return error("bad period");
          decl.blackout.period = *d;
        } else if (kv->first == "off" && op == "flap") {
          auto p = parse_double(kv->second);
          if (!p || *p <= 0 || *p > 1) return error("bad off fraction");
          decl.blackout.off_fraction = *p;
        } else if (kv->first == "radio") {
          auto r = parse_fault_radio(kv->second);
          if (!r) return error("radio must be all|ble|wifi|nan");
          decl.blackout.radio = *r;
        } else {
          return error("unknown argument '" + kv->first + "'");
        }
      }
      if (!have_at || !have_until) return error(op + " needs at= and until=");
      if (op == "flap") {
        if (decl.blackout.period.is_zero()) return error("flap needs period=");
        if (decl.blackout.off_fraction >= 1.0) {
          decl.blackout.off_fraction = 0.5;
        }
      }
      impl.blackouts.push_back(std::move(decl));

    } else if (op == "crash") {
      // crash <device> at=<t> [restart=<t>] [keepaddr]
      if (tokens.size() < 3) return error("crash <device> at=<t> [restart=<t>]");
      CrashDecl decl;
      decl.device = tokens[1];
      if (impl.find_device(decl.device) < 0) {
        return error("unknown device '" + decl.device + "'");
      }
      bool have_at = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "keepaddr") {
          decl.crash.rotate_addresses = false;
          continue;
        }
        auto kv = parse_kv(tokens[i]);
        if (!kv) return error("expected key=value, got '" + tokens[i] + "'");
        if (kv->first == "at") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.crash.at = TimePoint::origin() + *d;
          have_at = true;
        } else if (kv->first == "restart") {
          auto d = parse_duration(kv->second);
          if (!d) return error("bad time");
          decl.crash.restart = TimePoint::origin() + *d;
        } else {
          return error("unknown argument '" + kv->first + "'");
        }
      }
      if (!have_at) return error("crash needs at=");
      if (decl.crash.restart > TimePoint::origin() &&
          decl.crash.restart <= decl.crash.at) {
        return error("restart must be after the crash");
      }
      impl.crashes.push_back(std::move(decl));

    } else if (op == "discovery") {
      // discovery fixed|adaptive [floor=500ms] [ceiling=8s]
      //           [sparse_ceiling=2s] [ramp=2.0] [dense=8] [sparse=2]
      //           [jitter=0.1] [duty=0.05] [range=40]
      // Applies to every device in the scenario. `floor` is each device's
      // beacon interval: the fixed cadence, or the adaptive lower bound.
      if (tokens.size() < 2) {
        return error("discovery fixed|adaptive [key=value...]");
      }
      DiscoveryPolicy p;
      Duration floor = ManagerOptions().beacon_interval;
      if (tokens[1] == "fixed") {
        p.mode = DiscoveryPolicy::Mode::kFixed;
      } else if (tokens[1] == "adaptive") {
        p.mode = DiscoveryPolicy::Mode::kAdaptive;
      } else {
        return error("discovery mode must be fixed|adaptive");
      }
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        auto kv = parse_kv(tokens[i]);
        if (!kv) return error("expected key=value, got '" + tokens[i] + "'");
        if (kv->first == "floor" || kv->first == "ceiling" ||
            kv->first == "sparse_ceiling") {
          auto d = parse_duration(kv->second);
          if (!d || d->is_zero()) return error("bad " + kv->first);
          if (kv->first == "floor") {
            floor = *d;
          } else if (kv->first == "ceiling") {
            p.ceiling = *d;
          } else {
            p.sparse_ceiling = *d;
          }
        } else if (kv->first == "ramp") {
          auto v = parse_double(kv->second);
          if (!v || *v <= 1.0) return error("ramp must be > 1");
          p.ramp = *v;
        } else if (kv->first == "dense" || kv->first == "sparse") {
          auto v = parse_u64(kv->second);
          if (!v || *v == 0) return error("bad " + kv->first);
          (kv->first == "dense" ? p.dense_peers : p.sparse_peers) = *v;
        } else if (kv->first == "jitter") {
          auto v = parse_double(kv->second);
          if (!v || *v < 0 || *v >= 1) return error("jitter must be in [0,1)");
          p.jitter = *v;
        } else if (kv->first == "duty") {
          auto v = parse_double(kv->second);
          if (!v || *v <= 0 || *v > 1) return error("duty must be in (0,1]");
          p.min_scan_duty = *v;
        } else if (kv->first == "range") {
          auto v = parse_double(kv->second);
          if (!v || *v <= 0) return error("bad range");
          p.density_range_m = *v;
        } else {
          return error("unknown argument '" + kv->first + "'");
        }
      }
      if (p.ceiling < floor || p.sparse_ceiling < floor) {
        return error("discovery ceilings must be >= the floor");
      }
      impl.discovery = p;
      impl.beacon_interval = floor;

    } else if (op == "run") {
      if (tokens.size() != 2) return error("run <duration>");
      auto d = parse_duration(tokens[1]);
      if (!d) return error("bad duration '" + tokens[1] + "'");
      impl.instructions.emplace_back(RunInstr{*d});

    } else if (op == "report") {
      impl.instructions.emplace_back(ReportInstr{});

    } else if (op == "dump") {
      if (tokens.size() != 3 || tokens[1] != "trace") {
        return error("dump trace <path>");
      }
      impl.instructions.emplace_back(DumpTraceInstr{tokens[2]});
      impl.wants_observability = true;

    } else if (op == "checkpoint") {
      if (tokens.size() < 3 || tokens.size() > 4 || tokens[1] != "every") {
        return error("checkpoint every <interval> [dir]");
      }
      auto d = parse_duration(tokens[2]);
      if (!d || d->is_zero()) {
        return error("bad checkpoint interval '" + tokens[2] + "'");
      }
      impl.checkpoint_interval = *d;
      if (tokens.size() == 4) impl.checkpoint_dir = tokens[3];

    } else if (op == "snapshot") {
      if (tokens.size() != 2) return error("snapshot <path>");
      impl.instructions.emplace_back(SnapshotInstr{tokens[1]});

    } else {
      return error("unknown directive '" + op + "'");
    }
  }

  if (impl.devices.empty()) {
    return Result<std::unique_ptr<Scenario>>::error(
        "scenario declares no devices");
  }
  return scenario;
}

Status Scenario::run(std::ostream& out, unsigned threads, bool observe) {
  Impl& impl = *impl_;
  net::Testbed bed(impl.seed, radio::Calibration::defaults(), threads);
  if (observe || impl.wants_observability) bed.enable_observability();
  // Snapshots carry the script fingerprint; small scripts are embedded
  // whole, so an .osnap alone names the script that produced it.
  bed.set_scenario_fingerprint(
      impl.source_hash,
      impl.source_text.size() <= 16384 ? impl.source_text : std::string());
  std::vector<Impl::LiveDevice> live(impl.devices.size());

  for (std::size_t i = 0; i < impl.devices.size(); ++i) {
    const DeviceDecl& decl = impl.devices[i];
    live[i].device = &bed.add_device(decl.name, decl.position);
    OmniNodeOptions options = decl.options;
    options.manager.discovery = impl.discovery;
    options.manager.beacon_interval = impl.beacon_interval;
    live[i].node = std::make_unique<OmniNode>(*live[i].device, bed.mesh(),
                                              options);
    auto* ld = &live[i];
    live[i].node->manager().request_data(
        [ld](const OmniAddress&, BytesView) { ++ld->data_received; });
    live[i].node->start();
  }

  // Arm the fault plan once every device has a node id. An untouched plan
  // costs nothing on the delivery paths.
  const bool have_faults = !impl.link_faults.empty() ||
                           !impl.partitions.empty() ||
                           !impl.blackouts.empty() || !impl.crashes.empty();
  if (have_faults) {
    auto node_of = [&](const std::string& name) {
      if (name.empty()) return sim::FaultPlan::kAnyNode;
      return live[impl.find_device(name)].device->node();
    };
    sim::FaultPlan& plan = bed.fault_plan();
    plan.set_seed(impl.seed ^ 0x0f4a17);
    for (const auto& decl : impl.link_faults) {
      auto fault = decl.fault;
      fault.src = node_of(decl.src);
      fault.dst = node_of(decl.dst);
      plan.add_link_fault(fault);
    }
    for (const auto& decl : impl.partitions) {
      plan.add_partition(decl.partition);
    }
    for (const auto& decl : impl.blackouts) {
      auto blackout = decl.blackout;
      blackout.node = node_of(decl.device);
      plan.add_blackout(blackout);
    }
    for (const auto& decl : impl.crashes) {
      auto crash = decl.crash;
      crash.node = node_of(decl.device);
      plan.add_crash(crash);
    }
    bed.schedule_faults();
  }

  // Manager state rides along in every snapshot. Deep capture (full peer
  // tables, per-entry diffs) for script-sized fleets; digest-only above.
  bed.add_snapshot_source([&live](sim::Snapshot& snap) {
    std::vector<const OmniManager*> managers;
    managers.reserve(live.size());
    for (const auto& ld : live) managers.push_back(&ld.node->manager());
    capture_managers(managers, live.size() <= kDeepCaptureMaxManagers, snap);
  });
  if (impl.checkpoint_interval > Duration::zero()) {
    bed.checkpoint_every(impl.checkpoint_interval, impl.checkpoint_dir);
  }

  auto report = [&](std::ostream& os) {
    os << "=== report t=" << bed.simulator().now().as_seconds() << "s ===\n";
    for (std::size_t i = 0; i < live.size(); ++i) {
      const auto& stats = live[i].node->manager().stats();
      os << "  " << impl.devices[i].name << ": peers="
         << live[i].node->manager().peer_table().size()
         << " avg_mA=" << live[i].device->meter().average_ma(
                TimePoint::origin(), bed.simulator().now())
         << " rx_ctx=" << stats.context_received
         << " rx_data=" << live[i].data_received
         << " sends=" << live[i].sends_ok << "/"
         << live[i].sends_ok + live[i].sends_failed << "\n";
    }
    if (have_faults) {
      auto fs = bed.fault_plan().stats();
      os << "  faults: drops=" << fs.drops
         << " corruptions=" << fs.corruptions << " delays=" << fs.delays
         << " partition_drops=" << fs.partition_drops << "\n";
    }
  };

  ScenarioTimers timers(bed.simulator());
  for (const Instr& instruction : impl.instructions) {
    if (const auto* adv = std::get_if<AdvertiseInstr>(&instruction)) {
      int i = impl.find_device(adv->device);
      live[i].node->manager().add_context(ContextParams{adv->interval},
                                          adv->payload, nullptr);
    } else if (const auto* svc = std::get_if<ServiceInstr>(&instruction)) {
      int i = impl.find_device(svc->device);
      if (!live[i].service) {
        live[i].service =
            std::make_unique<ServicePublisher>(live[i].node->manager());
      }
      ServiceDescriptor d;
      d.service_type = svc->type;
      d.name = svc->service_name;
      live[i].service->publish(d, svc->interval);
    } else if (const auto* walk = std::get_if<WalkInstr>(&instruction)) {
      int i = impl.find_device(walk->device);
      NodeId node = live[i].device->node();
      sim::Vec2 to = walk->to;
      double speed = walk->speed;
      bool teleport = walk->teleport;
      timers.at(walk->at, [&bed, node, to, speed, teleport] {
        if (teleport) {
          bed.world().set_position(node, to);
        } else {
          bed.world().move_to(node, to, speed);
        }
      });
    } else if (const auto* send = std::get_if<SendInstr>(&instruction)) {
      int from = impl.find_device(send->from);
      int to = impl.find_device(send->to);
      auto* src = &live[from];
      OmniAddress dest = live[to].node->address();
      std::uint64_t bytes = send->bytes;
      timers.at(send->at, [src, dest, bytes] {
        src->node->manager().send_data(
            {dest}, Bytes(bytes, 0xD5),
            [src](StatusCode code, const ResponseInfo&) {
              if (is_success(code)) {
                ++src->sends_ok;
              } else {
                ++src->sends_failed;
              }
            });
      });
    } else if (const auto* power = std::get_if<PowerInstr>(&instruction)) {
      int i = impl.find_device(power->device);
      auto* dev = live[i].device;
      bool ble = power->ble, wifi = power->wifi;
      timers.at(power->at, [dev, ble, wifi] {
        if (ble) dev->ble().set_powered(false);
        if (wifi) dev->wifi().set_powered(false);
      });
    } else if (const auto* run_instr = std::get_if<RunInstr>(&instruction)) {
      bed.simulator().run_for(run_instr->duration);
    } else if (std::get_if<ReportInstr>(&instruction) != nullptr) {
      report(out);
    } else if (const auto* dump = std::get_if<DumpTraceInstr>(&instruction)) {
      obs::Omniscope* sc = bed.observability();
      if (sc == nullptr) {
        return Status::error("dump trace: observability is not enabled");
      }
      obs::TraceCapture cap = obs::capture(*sc);
      const std::string& path = dump->path;
      const bool json = path.size() >= 5 &&
                        path.compare(path.size() - 5, 5, ".json") == 0;
      const bool ok =
          json ? obs::write_perfetto_json(path, cap, bed.export_options())
               : obs::write_trace_file(path, cap);
      if (!ok) return Status::error("dump trace: cannot write " + path);
    } else if (const auto* snap = std::get_if<SnapshotInstr>(&instruction)) {
      Status s = bed.write_snapshot(snap->path, "snapshot");
      if (!s.is_ok()) {
        return Status::error("snapshot: " + s.message());
      }
    }
  }

  // The checkpoint daemon runs inside global events where it cannot abort
  // the run; a write failure it recorded must still fail the scenario
  // instead of silently producing fewer checkpoints than the script asked
  // for.
  if (!bed.checkpoint_error().empty()) {
    return Status::error("checkpoint: " + bed.checkpoint_error());
  }
  return Status::ok();
}

std::string run_scenario_text(const std::string& text, unsigned threads,
                              bool observe) {
  auto parsed = Scenario::parse(text);
  if (!parsed.is_ok()) return "parse error: " + parsed.error_message();
  std::ostringstream os;
  Status s = parsed.value()->run(os, threads, observe);
  if (!s.is_ok()) return "run error: " + s.message();
  return os.str();
}

}  // namespace omni::scenario
