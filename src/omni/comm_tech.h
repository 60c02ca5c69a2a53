// The Communication Technology API (paper §3.2).
//
// A D2D technology plugin integrates with Omni through three queues:
//
//   * its own send_queue   — requests from the Omni Manager (context add /
//                            update / remove, data sends);
//   * the shared receive_queue — every omni_packed_struct any technology
//                            receives, tagged with the technology type and
//                            the low-level source address;
//   * the shared response_queue — per-request success/failure (carrying the
//                            forwarded status callback and the original
//                            request, so the manager can fail over to
//                            another technology) and technology status
//                            changes.
//
// A plugin implements enable() / disable() plus the static capability and
// estimation queries the manager's technology selector uses. One extension
// to the paper's minimal contract: set_engaged() lets the manager drive the
// multi-technology engagement algorithm of §3.3 (a disengaged context
// technology only probe-listens at a low duty cycle).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "common/time.h"
#include "common/types.h"
#include "omni/queues.h"
#include "omni/status.h"

namespace omni {

/// Technology-specific addressing: which concrete interface a peer is
/// reachable on.
using LowLevelAddress =
    std::variant<std::monostate, BleAddress, MeshAddress, NanAddress>;

std::string to_string(const LowLevelAddress& addr);
inline bool is_unset(const LowLevelAddress& addr) {
  return std::holds_alternative<std::monostate>(addr);
}

enum class SendOp : std::uint8_t {
  kAddContext,
  kUpdateContext,
  kRemoveContext,
  kSendData,
};

std::string to_string(SendOp op);

/// A request placed on one technology's send_queue by the Omni Manager.
struct SendRequest {
  std::uint64_t request_id = 0;
  SendOp op = SendOp::kSendData;

  // Context operations.
  ContextId context_id = kInvalidContext;
  Duration interval;  ///< transmission frequency for add/update

  /// Encoded omni_packed_struct (empty for remove_context).
  Bytes packed;

  // Data operations.
  LowLevelAddress dest;
  OmniAddress dest_omni;
  /// The peer mapping came from application-level multicast, so the
  /// technology must re-validate the network (discovery ritual) first.
  bool needs_refresh = false;
  /// The service was never heard on a low-energy ND-integrated technology
  /// either, so re-validation must also wait out the peer's next periodic
  /// advertisement (the full ~3.2 s path of paper §4.2).
  bool refresh_advert_wait = false;

  /// Forwarded to the response, as the paper specifies.
  StatusCallback callback;
};

/// A message on the shared response_queue.
struct TechResponse {
  enum class Kind : std::uint8_t {
    kRequestResult,
    kTechStatus,
    /// Paper §3.2: "a response is also generated when the status of the D2D
    /// technology itself changes, for example, when the radio is turned off
    /// or the address changes."
    kAddressChange,
  };

  Kind kind = Kind::kRequestResult;
  Technology tech = Technology::kBle;

  // --- kRequestResult fields.
  std::uint64_t request_id = 0;
  SendOp op = SendOp::kSendData;
  bool success = false;
  std::string failure_reason;
  ContextId context_id = kInvalidContext;
  OmniAddress dest_omni;
  StatusCallback callback;
  /// On failure the technology echoes back the whole request (parameters and
  /// payload) so the manager can re-issue it on an alternative technology —
  /// paper §3.2, "The Response Queue".
  std::shared_ptr<SendRequest> original;

  // --- kTechStatus fields.
  bool up = false;

  // --- kAddressChange fields.
  LowLevelAddress new_address;

  static TechResponse result(Technology tech, const SendRequest& req,
                             bool success, std::string failure = {});
  static TechResponse status_change(Technology tech, bool up);
  static TechResponse address_change(Technology tech,
                                     LowLevelAddress new_address);
};

/// A received transmission placed on the shared receive_queue.
struct ReceivedPacket {
  Technology tech = Technology::kBle;
  LowLevelAddress from;
  Bytes packed;  ///< encoded omni_packed_struct
};

struct TechQueues {
  SimQueue<SendRequest>* send = nullptr;          ///< this technology's own
  SimQueue<ReceivedPacket>* receive = nullptr;    ///< shared
  SimQueue<TechResponse>* response = nullptr;     ///< shared
};

struct EnableResult {
  Technology type;
  LowLevelAddress address;
};

class CommTechnology {
 public:
  virtual ~CommTechnology() = default;

  /// Bind the queues and activate the technology. Returns its type and the
  /// low-level address at which this device is reachable.
  virtual EnableResult enable(const TechQueues& queues) = 0;

  /// Gracefully shut down: process remaining send-queue requests, push the
  /// requisite responses, then stop.
  virtual void disable() = 0;

  virtual Technology type() const = 0;
  virtual bool enabled() const = 0;

  // --- Capabilities (used by the manager's selector).
  virtual bool supports_context() const = 0;
  virtual bool supports_data() const = 0;
  /// Largest encoded packed struct a periodic context transmission can carry.
  virtual std::size_t max_context_payload() const = 0;
  /// Largest encoded packed struct a data send can carry (0 = unbounded).
  virtual std::size_t max_data_payload() const = 0;
  /// Expected time to deliver `bytes` of data to a known peer.
  virtual Duration estimate_data_time(std::size_t bytes,
                                      bool needs_refresh) const = 0;

  /// Engagement control (paper §3.3): an engaged context technology listens
  /// continuously and carries beacons; a disengaged one probe-listens
  /// periodically. Data-only technologies may ignore this.
  virtual void set_engaged(bool engaged) = 0;
  virtual bool engaged() const = 0;

  /// True when the plugin transmits through shared infrastructure (e.g. a
  /// WiFi mesh) whose state spans many nodes. Under the parallel engine the
  /// manager keeps such a plugin's send queue on the barrier-serialized
  /// global owner; node-local media (BLE, NAN) run on the hosting node's
  /// shard.
  virtual bool uses_shared_medium() const { return false; }

  /// Discovery-policy hook (Karowski-Miller optimized passive scanning): cap
  /// the passive listen duty cycle at `duty` while the manager judges the
  /// neighborhood saturated and stable. 0 (or out-of-range) clears the
  /// override and restores the plugin's own duty (full listen when engaged,
  /// its probe duty otherwise). Only periodic-discovery traffic is subject
  /// to the capture trial this duty scales; reliable data bursts are not.
  /// Plugins without a duty-cycled scanner may ignore it.
  virtual void set_discovery_scan_duty(double /*duty*/) {}
};

}  // namespace omni
