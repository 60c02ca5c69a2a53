#include "omni/manager_snapshot.h"

#include <algorithm>
#include <string_view>

#include "net/testbed.h"
#include "omni/manager.h"
#include "omni/omni_node.h"

namespace omni {

void capture_managers(const std::vector<const OmniManager*>& managers,
                      bool deep, sim::Snapshot& snap) {
  std::vector<const OmniManager*> sorted;
  sorted.reserve(managers.size());
  for (const OmniManager* m : managers) {
    if (m != nullptr) sorted.push_back(m);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const OmniManager* a, const OmniManager* b) {
              return a->address().value < b->address().value;
            });

  sim::ByteWriter w;
  w.var(sorted.size());
  w.u8(deep ? 1 : 0);
  sim::ByteWriter rec;
  for (const OmniManager* m : sorted) {
    m->snapshot_state(rec, deep);
    std::vector<std::uint8_t> bytes = rec.take();
    w.str(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size()));
  }
  snap.section(sim::kSecManagers).bytes = w.take();
}

void add_manager_snapshot_source(
    net::Testbed& bed, const std::vector<std::unique_ptr<OmniNode>>& nodes) {
  bed.add_snapshot_source([&nodes](sim::Snapshot& snap) {
    std::vector<const OmniManager*> managers;
    managers.reserve(nodes.size());
    for (const auto& node : nodes) managers.push_back(&node->manager());
    capture_managers(managers, nodes.size() <= kDeepCaptureMaxManagers, snap);
  });
}

std::vector<std::pair<std::uint64_t, std::size_t>> list_manager_records(
    const sim::SnapshotSection& sec) {
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  sim::ByteReader r(sec.bytes);
  const std::uint64_t count = r.var();
  r.u8();  // deep flag
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::string record = r.str();
    sim::ByteReader rr(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(record.data()), record.size()));
    out.emplace_back(rr.u64(), record.size());
    if (!rr.ok()) break;
  }
  if (!r.ok()) out.clear();
  return out;
}

}  // namespace omni
