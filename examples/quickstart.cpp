// Quickstart: the smallest complete Omni program.
//
// Two simulated devices discover each other through Omni's address beacons,
// one shares a context pack ("hello"), and the other responds with a data
// transfer — all through the Developer API of paper Table 1, with the
// technology choice left entirely to the Omni Manager.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "net/testbed.h"
#include "omni/omni_node.h"

using namespace omni;

int main() {
  // A testbed = simulator + world + BLE medium + WiFi-Mesh system.
  net::Testbed bed(/*seed=*/7);
  auto& alice_dev = bed.add_device("alice", {0, 0});
  auto& bob_dev = bed.add_device("bob", {15, 0});

  // Every device runs one OmniManager with its technology plugins.
  OmniNode alice(alice_dev, bed.mesh());
  OmniNode bob(bob_dev, bed.mesh());

  // Bob registers the two receive callbacks (Table 1: request_context /
  // request_data).
  bob.manager().request_context(
      [&](const OmniAddress& source, const Bytes& context) {
        std::printf("[%6.2fs] bob: context from %s: \"%.*s\"\n",
                    bed.simulator().now().as_seconds(),
                    source.to_string().c_str(),
                    static_cast<int>(context.size()),
                    reinterpret_cast<const char*>(context.data()));
        // Answer with data — Omni picks the technology (here: WiFi TCP,
        // because the context beacon already delivered alice's mesh
        // address).
        Bytes reply{'p', 'o', 'n', 'g'};
        bob.manager().send_data(
            {source}, reply, [&](StatusCode code, const ResponseInfo& info) {
              std::printf("[%6.2fs] bob: send_data -> %s (%s)\n",
                          bed.simulator().now().as_seconds(),
                          info.destination.to_string().c_str(),
                          to_string(code).c_str());
            });
      });

  alice.manager().request_data(
      [&](const OmniAddress& source, BytesView data) {
        std::printf("[%6.2fs] alice: data from %s: \"%.*s\"\n",
                    bed.simulator().now().as_seconds(),
                    source.to_string().c_str(), static_cast<int>(data.size()),
                    reinterpret_cast<const char*>(data.data()));
      });

  alice.start();
  bob.start();

  // Alice shares a small context pack every 500 ms (Table 1: add_context).
  ContextParams params;
  params.interval = Duration::millis(500);
  alice.manager().add_context(
      params, Bytes{'h', 'e', 'l', 'l', 'o'},
      [&](StatusCode code, const ResponseInfo& info) {
        std::printf("[%6.2fs] alice: add_context -> %s (id=%u)\n",
                    bed.simulator().now().as_seconds(),
                    to_string(code).c_str(), info.context_id);
      });

  bed.simulator().run_for(Duration::seconds(3));

  std::printf("\nalice knows %zu peer(s); bob knows %zu peer(s)\n",
              alice.manager().peer_table().size(),
              bob.manager().peer_table().size());
  std::printf("done.\n");
  return 0;
}
