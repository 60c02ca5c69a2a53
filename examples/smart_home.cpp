// Smart-home walkthrough using the typed service-discovery layer.
//
// Sensors and a smart lamp publish typed ServiceDescriptors as Omni
// context; a hub browses the neighborhood, subscribes to sensors it finds,
// and pushes scenes to the lamp — all without a gateway or pre-established
// network (§2.2's smart-building motivation, contrast with the
// AllJoyn/IoTivity gateway model the paper critiques).
//
//   $ ./examples/smart_home
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/testbed.h"
#include "omni/omni_node.h"
#include "omni/service.h"

using namespace omni;

namespace {

struct SensorDevice {
  std::string name;
  net::Device* device = nullptr;
  std::unique_ptr<OmniNode> node;
  std::unique_ptr<ServicePublisher> publisher;
  int reading = 20;
};

}  // namespace

int main() {
  net::Testbed bed(/*seed=*/31);
  auto& sim = bed.simulator();

  // --- Three sensors and a lamp scattered around the flat.
  std::vector<SensorDevice> sensors(3);
  const char* kNames[] = {"thermo-kitchen", "thermo-bedroom", "hygro-bath"};
  for (int i = 0; i < 3; ++i) {
    sensors[i].name = kNames[i];
    sensors[i].device =
        &bed.add_device(kNames[i], {4.0 * i, 3.0 * (i % 2)});
    sensors[i].node =
        std::make_unique<OmniNode>(*sensors[i].device, bed.mesh());
    sensors[i].node->start();
    sensors[i].publisher =
        std::make_unique<ServicePublisher>(sensors[i].node->manager());
    ServiceDescriptor d;
    d.service_type = service_types::kSensor;
    d.name = sensors[i].name.substr(0, 12);
    d.attributes[1] = Bytes{static_cast<std::uint8_t>(20 + i)};  // reading
    sensors[i].publisher->publish(d, Duration::millis(500));
    // Sensors answer data requests with a fresh reading.
    OmniManager& m = sensors[i].node->manager();
    auto* sensor = &sensors[i];
    m.request_data([&bed, sensor](const OmniAddress& from, BytesView req) {
      if (req.empty() || req[0] != 'R') return;
      Bytes reading{'V', static_cast<std::uint8_t>(sensor->reading)};
      sensor->node->manager().send_data({from}, std::move(reading), nullptr);
    });
  }

  auto& lamp_dev = bed.add_device("lamp", {6, 1});
  OmniNode lamp(lamp_dev, bed.mesh());
  lamp.start();
  ServicePublisher lamp_publisher(lamp.manager());
  {
    ServiceDescriptor d;
    d.service_type = service_types::kMediaStream;  // "scene sink"
    d.name = "lamp";
    lamp_publisher.publish(d, Duration::millis(500));
  }
  lamp.manager().request_data(
      [&](const OmniAddress&, BytesView scene) {
        std::printf("[%5.1fs] lamp: applying %zu-byte scene\n",
                    sim.now().as_seconds(), scene.size());
      });

  // --- The hub: browse, subscribe, orchestrate.
  auto& hub_dev = bed.add_device("hub", {3, 1});
  OmniNode hub(hub_dev, bed.mesh());
  hub.start();
  ServiceBrowser browser(hub.manager(), bed.simulator());
  std::map<std::string, int> readings;
  hub.manager().request_data(
      [&](const OmniAddress&, BytesView data) {
        if (data.size() == 2 && data[0] == 'V') {
          std::printf("[%5.1fs] hub: reading = %d\n",
                      sim.now().as_seconds(), data[1]);
        }
      });
  browser.on_found([&](const ServiceBrowser::Entry& e) {
    std::printf("[%5.1fs] hub: found %s '%s' at %s\n",
                sim.now().as_seconds(),
                e.descriptor.service_type == service_types::kSensor
                    ? "sensor"
                    : "sink",
                e.descriptor.name.c_str(),
                e.provider.to_string().c_str());
  });
  browser.on_lost([&](const ServiceBrowser::Entry& e) {
    std::printf("[%5.1fs] hub: lost '%s'\n", sim.now().as_seconds(),
                e.descriptor.name.c_str());
  });

  // Every 5 s: poll every known sensor; at t=12 push a big "scene" (a 200 KB
  // lighting program) to the lamp over whatever technology Omni picks.
  std::function<void()> poll = [&] {
    for (OmniAddress provider :
         browser.providers_of(service_types::kSensor)) {
      hub.manager().send_data({provider}, Bytes{'R'}, nullptr);
    }
    sim.after(Duration::seconds(5), poll);
  };
  sim.after(Duration::seconds(2), poll);
  sim.after(Duration::seconds(12), [&] {
    for (OmniAddress sink :
         browser.providers_of(service_types::kMediaStream)) {
      Bytes scene(200'000, 0x5C);
      hub.manager().send_data({sink}, std::move(scene), nullptr);
    }
  });

  // The bathroom sensor's battery dies at t=20.
  sim.after(Duration::seconds(20), [&] {
    std::printf("[%5.1fs] hygro-bath battery dies\n", sim.now().as_seconds());
    sensors[2].node->stop();
    sensors[2].device->ble().set_powered(false);
    sensors[2].device->wifi().set_powered(false);
  });

  sim.run_for(Duration::seconds(40));

  std::printf("\nhub directory at t=%.0fs:\n", sim.now().as_seconds());
  for (const auto& e : browser.services()) {
    std::printf("  %-14s last seen %.1fs ago\n", e.descriptor.name.c_str(),
                (sim.now() - e.last_seen).as_seconds());
  }
  std::printf("hub avg draw: %.1f mA\n",
              hub_dev.meter().average_ma(TimePoint::origin(), sim.now()));
  return 0;
}
