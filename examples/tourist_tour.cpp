// The smart-city tourism scenario from paper §2.2 / §3 (Figure 3).
//
// A tour group walks through a digitally enhanced city:
//   * the tour guide's device streams audio metadata to the group;
//   * landmark beacons advertise interactive visualizations as context and
//     stream the visualization itself as heavyweight data over WiFi when a
//     tourist's interest context appears;
//   * tourists walk (mobility!), drifting in and out of landmark range.
//
// Everything below is written against the Omni Developer API only — no
// technology names appear in the application logic.
//
//   $ ./examples/tourist_tour
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "omni/omni_node.h"

using namespace omni;

namespace {

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string to_string_bytes(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

struct Landmark {
  std::string name;
  net::Device* device = nullptr;
  std::unique_ptr<OmniNode> node;
  std::uint64_t visualization_bytes = 0;
  std::map<OmniAddress, bool> streamed_to;
};

struct Tourist {
  std::string name;
  net::Device* device = nullptr;
  std::unique_ptr<OmniNode> node;
  std::uint64_t media_received = 0;
  std::uint64_t audio_packets = 0;
};

}  // namespace

int main() {
  net::Testbed bed(/*seed=*/11);
  auto& sim = bed.simulator();

  // --- The cast: one guide, two landmarks 80 m apart, three tourists.
  auto& guide_dev = bed.add_device("guide", {0, 0});
  OmniNode guide(guide_dev, bed.mesh());

  std::vector<Landmark> landmarks(2);
  landmarks[0].name = "old-town-hall";
  landmarks[0].device = &bed.add_device(landmarks[0].name, {40, 10});
  landmarks[0].visualization_bytes = 2'000'000;  // 2 MB interactive render
  landmarks[1].name = "cathedral";
  landmarks[1].device = &bed.add_device(landmarks[1].name, {120, -5});
  landmarks[1].visualization_bytes = 3'500'000;

  std::vector<Tourist> tourists(3);
  for (int i = 0; i < 3; ++i) {
    tourists[i].name = "tourist-" + std::to_string(i + 1);
    tourists[i].device =
        &bed.add_device(tourists[i].name, {-5.0 + i * 3, 2.0 * i});
    tourists[i].node =
        std::make_unique<OmniNode>(*tourists[i].device, bed.mesh());
  }
  for (auto& lm : landmarks) {
    lm.node = std::make_unique<OmniNode>(*lm.device, bed.mesh());
  }

  // --- Landmark logic: advertise the visualization service as context;
  // when a tourist's interest context appears, stream the visualization.
  for (auto& lm : landmarks) {
    OmniManager& m = lm.node->manager();
    m.request_context([&lm, &sim](const OmniAddress& source,
                                  const Bytes& context) {
      if (to_string_bytes(context) != "interest:viz") return;
      if (lm.streamed_to[source]) return;  // already served this visitor
      lm.streamed_to[source] = true;
      std::printf("[%6.2fs] %s: streaming %.1f MB visualization to %s\n",
                  sim.now().as_seconds(), lm.name.c_str(),
                  static_cast<double>(lm.visualization_bytes) / 1e6,
                  source.to_string().c_str());
      Bytes viz(lm.visualization_bytes, 0x56);
      viz[0] = 'V';
      lm.node->manager().send_data({source}, std::move(viz), nullptr);
    });
    lm.node->start();
    ContextParams params;
    params.interval = Duration::millis(500);
    m.add_context(params, to_bytes("svc:" + lm.name), nullptr);
  }

  // --- Tourist logic: advertise interest; count media and audio arrivals.
  for (auto& t : tourists) {
    OmniManager& m = t.node->manager();
    m.request_data([&t, &sim](const OmniAddress&, BytesView data) {
      if (!data.empty() && data[0] == 'V') {
        t.media_received += data.size();
        std::printf("[%6.2fs] %s: received %.1f MB of visualization\n",
                    sim.now().as_seconds(), t.name.c_str(),
                    static_cast<double>(data.size()) / 1e6);
      } else {
        ++t.audio_packets;
      }
    });
    t.node->start();
    ContextParams params;
    params.interval = Duration::millis(500);
    m.add_context(params, to_bytes("interest:viz"), nullptr);
  }

  // --- Guide logic: periodically push a small "audio frame" to every
  // tourist currently in the peer table (heavier-weight streaming would use
  // larger data packs; this keeps the example output readable).
  guide.start();
  std::function<void()> stream_audio = [&] {
    Bytes frame(400, 0xA0);
    frame[0] = 'A';
    for (OmniAddress peer : guide.manager().peer_table().peers()) {
      guide.manager().send_data({peer}, frame, nullptr);
    }
    sim.after(Duration::seconds(1), stream_audio);
  };
  sim.after(Duration::seconds(2), stream_audio);

  // --- The tour: the group (guide + tourists) walks past both landmarks.
  auto walk_group = [&](sim::Vec2 target, double speed) {
    bed.world().move_to(guide_dev.node(), target, speed);
    for (int i = 0; i < 3; ++i) {
      sim::Vec2 offset{target.x - 5.0 + i * 3, target.y + 2.0 * i};
      bed.world().move_to(tourists[i].device->node(), offset, speed);
    }
  };
  sim.after(Duration::seconds(5), [&] { walk_group({45, 0}, 1.4); });
  sim.after(Duration::seconds(60), [&] { walk_group({125, 0}, 1.4); });

  sim.run_for(Duration::seconds(150));

  // --- Tour report.
  std::printf("\n=== tour report (t=%.0fs) ===\n", sim.now().as_seconds());
  for (const auto& t : tourists) {
    std::printf(
        "%s: %.1f MB visualizations, %llu audio frames, %.1f mA avg draw\n",
        t.name.c_str(), static_cast<double>(t.media_received) / 1e6,
        static_cast<unsigned long long>(t.audio_packets),
        t.device->meter().average_ma(TimePoint::origin(), sim.now()));
  }
  for (const auto& lm : landmarks) {
    std::size_t served = 0;
    for (const auto& [addr, ok] : lm.streamed_to) served += ok ? 1 : 0;
    std::printf("%s: served %zu visitor(s)\n", lm.name.c_str(), served);
  }
  return 0;
}
