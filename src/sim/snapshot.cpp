#include "sim/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/assert.h"
#include "common/hash.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "sim/world.h"

namespace omni::sim {

// --- Section table -----------------------------------------------------------

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSecManifest: return "manifest";
    case kSecEvents: return "events";
    case kSecRng: return "rng";
    case kSecWorld: return "world";
    case kSecFaults: return "faults";
    case kSecManagers: return "managers";
    case kSecMetrics: return "metrics";
    default: {
      static thread_local char buf[16];
      std::snprintf(buf, sizeof(buf), "sec%u", id);
      return buf;
    }
  }
}

const codec::ContainerSpec& snapshot_spec() {
  static const codec::ContainerSpec spec = {
      {kSnapshotMagic[0], kSnapshotMagic[1], kSnapshotMagic[2],
       kSnapshotMagic[3]},
      kSnapshotVersion,
      "snapshot",
      &section_name,
  };
  return spec;
}

// --- Manifest ----------------------------------------------------------------

void write_manifest(const SnapshotManifest& m, Snapshot& snap) {
  ByteWriter w;
  w.u64(m.seed);
  w.svar(m.at.as_micros());
  w.var(m.threads);
  w.var(m.executed_events);
  w.var(m.node_count);
  w.var(m.device_count);
  w.str(m.label);
  w.u64(m.scenario_hash);
  w.str(m.scenario_text);
  snap.section(kSecManifest).bytes = w.take();
}

Result<SnapshotManifest> read_manifest(const Snapshot& snap) {
  const SnapshotSection* s = snap.find(kSecManifest);
  if (s == nullptr) {
    return Result<SnapshotManifest>::error("snapshot has no manifest section");
  }
  ByteReader r(s->bytes);
  SnapshotManifest m;
  m.seed = r.u64();
  m.at = TimePoint::from_micros(r.svar());
  m.threads = static_cast<std::uint32_t>(r.var());
  m.executed_events = r.var();
  m.node_count = r.var();
  m.device_count = r.var();
  m.label = r.str();
  m.scenario_hash = r.u64();
  m.scenario_text = r.str();
  if (!r.done()) {
    return Result<SnapshotManifest>::error("manifest section is malformed");
  }
  return m;
}

// --- State capture -----------------------------------------------------------

void capture_events(const Simulator& sim, TimePoint at, Snapshot& snap) {
  std::vector<Simulator::PendingEvent> pending;
  sim.snapshot_pending(pending);
  // Canonical order: owner-major, then fire order within the owner. Each
  // owner's events live in exactly one queue, so its generations — though
  // thread-count-dependent in *value* — give the exact thread-invariant fire
  // order when sorted under (at, generation). Generations are then dropped.
  std::sort(pending.begin(), pending.end(),
            [](const Simulator::PendingEvent& a,
               const Simulator::PendingEvent& b) {
              if (a.owner != b.owner) return a.owner < b.owner;
              if (a.at != b.at) return a.at < b.at;
              return a.generation < b.generation;
            });
  ByteWriter w;
  w.var(pending.size());
  std::size_t i = 0;
  while (i < pending.size()) {
    const OwnerId owner = pending[i].owner;
    std::size_t j = i;
    while (j < pending.size() && pending[j].owner == owner) ++j;
    w.var(owner);
    w.var(j - i);
    for (; i < j; ++i) {
      const std::int64_t rel = (pending[i].at - at).as_micros();
      OMNI_ASSERTF(rel >= 0, "pending event predates capture instant (owner %u)",
                   owner);
      w.var((static_cast<std::uint64_t>(rel) << 1) |
            (pending[i].immediate ? 1u : 0u));
    }
  }
  snap.section(kSecEvents).bytes = w.take();
}

void capture_rng(const Simulator& sim, Snapshot& snap) {
  std::vector<std::pair<OwnerId, std::uint64_t>> draws;
  sim.snapshot_rng_draws(draws);
  const std::vector<std::uint64_t>& seqs = sim.owner_seqs();
  ByteWriter w;
  w.var(draws.size());
  for (const auto& [owner, count] : draws) {
    w.var(owner);
    w.var(count);
    w.var(owner < seqs.size() ? seqs[owner] : 0);
  }
  snap.section(kSecRng).bytes = w.take();
}

void capture_world(const World& world, Snapshot& snap) {
  std::vector<World::SnapshotRow> rows;
  world.snapshot_rows(rows);
  ByteWriter w;
  w.var(rows.size());
  for (const World::SnapshotRow& row : rows) {
    // Rows arrive ascending by id with no holes, so the id itself is implied
    // by position. A "static" row (never moved, or teleported: depart ==
    // arrive and from == to) compresses to flags + one position — the
    // representation that keeps a crowd node well under its 64 B budget.
    const bool is_static = row.from == row.to && row.depart == row.arrive;
    w.u8(static_cast<std::uint8_t>((row.full_stack ? 1 : 0) |
                                   (is_static ? 2 : 0)));
    w.f64(row.to.x);
    w.f64(row.to.y);
    if (!is_static) {
      w.f64(row.from.x);
      w.f64(row.from.y);
      w.svar(row.depart.as_micros());
      w.svar(row.arrive.as_micros());
    }
  }
  snap.section(kSecWorld).bytes = w.take();
}

void capture_faults(const FaultPlan& plan, Snapshot& snap) {
  ByteWriter w;
  w.u64(plan.seed());
  w.var(plan.link_faults().size());
  for (const auto& f : plan.link_faults()) {
    w.svar(f.start.as_micros());
    w.svar(f.end == TimePoint::max() ? -1 : f.end.as_micros());
    w.u8(static_cast<std::uint8_t>(f.radio));
    w.var(f.src);
    w.var(f.dst);
    w.f64(f.loss);
    w.f64(f.corrupt);
    w.svar(f.extra_latency.as_micros());
  }
  w.var(plan.blackouts().size());
  for (const auto& b : plan.blackouts()) {
    w.var(b.node);
    w.u8(static_cast<std::uint8_t>(b.radio));
    w.svar(b.start.as_micros());
    w.svar(b.end == TimePoint::max() ? -1 : b.end.as_micros());
    w.svar(b.period.as_micros());
    w.f64(b.off_fraction);
  }
  w.var(plan.crashes().size());
  for (const auto& c : plan.crashes()) {
    w.var(c.node);
    w.svar(c.at.as_micros());
    w.svar(c.restart.as_micros());
    w.u8(c.rotate_addresses ? 1 : 0);
  }
  w.var(plan.partitions().size());
  for (const auto& p : plan.partitions()) {
    w.svar(p.start.as_micros());
    w.svar(p.end == TimePoint::max() ? -1 : p.end.as_micros());
    w.f64(p.a);
    w.f64(p.b);
    w.f64(p.c);
  }
  const FaultPlan::Stats st = plan.stats();
  w.var(st.drops);
  w.var(st.corruptions);
  w.var(st.delays);
  w.var(st.partition_drops);
  snap.section(kSecFaults).bytes = w.take();
}

// --- Serialization / file I/O ------------------------------------------------

std::vector<std::uint8_t> serialize_snapshot(const Snapshot& snap) {
  return codec::serialize_container(snap, snapshot_spec());
}

Result<Snapshot> parse_snapshot(std::span<const std::uint8_t> data) {
  return codec::parse_container(data, snapshot_spec());
}

Status write_snapshot_file(const std::string& path, const Snapshot& snap) {
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snap);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::error("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    return Status::error("short write to '" + path + "'");
  }
  return Status::ok();
}

Result<Snapshot> read_snapshot_file(const std::string& path) {
  using R = Result<Snapshot>;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return R::error("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  Result<Snapshot> parsed = parse_snapshot(bytes);
  if (!parsed) {
    return R::error("'" + path + "': " + parsed.error_message());
  }
  return parsed;
}

// --- Verify / diff -----------------------------------------------------------

std::uint64_t snapshot_digest(const Snapshot& snap) {
  return codec::container_digest(snap, snapshot_spec());
}

namespace {

// `snap` with its manifest's capturing thread count zeroed. A manifest that
// does not decode stays as it is, so the comparison still names it.
Snapshot without_threads(const Snapshot& snap) {
  Snapshot out = snap;
  Result<SnapshotManifest> m = read_manifest(snap);
  if (m) {
    SnapshotManifest manifest = std::move(m).value();
    manifest.threads = 0;
    write_manifest(manifest, out);
  }
  return out;
}

}  // namespace

std::string diff_snapshots(const Snapshot& a, const Snapshot& b,
                           bool ignore_threads) {
  if (!ignore_threads) return codec::diff_containers(a, b, snapshot_spec());
  return codec::diff_containers(without_threads(a), without_threads(b),
                                snapshot_spec());
}

std::string describe_snapshot(const Snapshot& snap) {
  std::string out;
  char line[256];
  Result<SnapshotManifest> mr = read_manifest(snap);
  if (mr) {
    const SnapshotManifest& m = mr.value();
    std::snprintf(line, sizeof(line),
                  "manifest: seed=%llu t=%.6fs threads=%u executed=%llu "
                  "nodes=%llu devices=%llu label='%s' scenario_hash=%016llx\n",
                  static_cast<unsigned long long>(m.seed),
                  static_cast<double>(m.at.as_micros()) / 1e6, m.threads,
                  static_cast<unsigned long long>(m.executed_events),
                  static_cast<unsigned long long>(m.node_count),
                  static_cast<unsigned long long>(m.device_count),
                  m.label.c_str(),
                  static_cast<unsigned long long>(m.scenario_hash));
    out += line;
  } else {
    out += "manifest: " + mr.error_message() + "\n";
  }
  for (const SnapshotSection& s : snap.sections) {
    std::string detail;
    ByteReader r(s.bytes);
    switch (s.id) {
      case kSecEvents: {
        const std::uint64_t n = r.var();
        std::uint64_t owners = 0, seen = 0;
        while (r.ok() && seen < n) {
          r.var();  // owner
          const std::uint64_t cnt = r.var();
          for (std::uint64_t i = 0; r.ok() && i < cnt; ++i) r.var();
          seen += cnt;
          ++owners;
        }
        if (r.ok()) {
          detail = std::to_string(n) + " pending events across " +
                   std::to_string(owners) + " owners";
        }
        break;
      }
      case kSecRng:
        detail = std::to_string(r.var()) + " owner streams";
        break;
      case kSecWorld:
        detail = std::to_string(r.var()) + " nodes";
        break;
      case kSecManagers:
        detail = std::to_string(r.var()) + " managers";
        break;
      default:
        break;
    }
    std::snprintf(line, sizeof(line), "%-10s %8zu bytes  fnv=%016llx%s%s\n",
                  section_name(s.id), s.bytes.size(),
                  static_cast<unsigned long long>(fnv1a64(s.bytes)),
                  detail.empty() ? "" : "  ", detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace omni::sim
