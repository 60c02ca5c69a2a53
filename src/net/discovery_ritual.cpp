#include "net/discovery_ritual.h"

#include <algorithm>

#include "obs/omniscope.h"

namespace omni::net {

void run_discovery_ritual(radio::WifiRadio& radio, radio::MeshNetwork& mesh,
                          RitualOptions options,
                          std::function<void(Status)> done) {
  if (!radio.powered()) {
    done(Status::error("WiFi radio is off"));
    return;
  }
  radio.scan([&radio, &mesh, options, done = std::move(done)](
                 std::vector<radio::MeshNetwork*> found) mutable {
    bool visible = std::find(found.begin(), found.end(), &mesh) != found.end();
    // A mesh we are already part of counts as present even with no other
    // member in range yet (we may be the first).
    if (!visible && radio.mesh() != &mesh) {
      done(Status::error("mesh not found during scan"));
      return;
    }
    radio.join(mesh, [&radio, &mesh, options,
                      done = std::move(done)](Status joined) mutable {
      if (!joined) {
        done(std::move(joined));
        return;
      }
      const auto& cal = radio.calibration();
      Duration wait = cal.wifi_resolve_query;
      if (options.wait_for_advertisement) wait += cal.wifi_advert_wait;
      if (obs::Omniscope* sc = OMNI_SCOPE(radio.simulator())) {
        // The resolution wait is the span the paper's ritual spends parked
        // on the mesh before contexts can flow.
        sc->complete_on(radio.node(), obs::Cat::kRitual, wait);
      }
      // The resolve query is one small multicast round-trip.
      radio.meter().charge_for(Duration::millis(3), cal.wifi_send_ma,
                               obs::EnergyRail::kWifi);
      radio.simulator().after(wait, [&radio, &mesh,
                                     done = std::move(done)]() mutable {
        if (!radio.powered() || radio.mesh() != &mesh) {
          done(Status::error("radio state changed during resolution"));
          return;
        }
        radio.meter().charge_for(Duration::millis(3),
                                 radio.calibration().wifi_receive_ma,
                                 obs::EnergyRail::kWifi);
        done(Status::ok());
      });
    });
  });
}

}  // namespace omni::net
