// Common application-facing interface over the three compared stacks:
// State of the Practice (single-technology, hand-coded discovery), State of
// the Art (ubiSOAP-style multi-radio overlay), and Omni.
//
// The paper's applications (Disseminate-like media sharing, PROPHET routing)
// are written once against this interface and run over each stack, exactly
// as the paper's evaluation does.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "common/types.h"

namespace omni::baselines {

class D2dStack {
 public:
  /// Application-level peer identity. Under Omni this is the omni_address;
  /// the baselines embed an equivalent 8-byte application id in their
  /// advertisements (a real app would use a username or install id).
  using PeerId = std::uint64_t;

  using AdvertFn = std::function<void(PeerId from, const Bytes& info)>;
  /// `data` views the received bytes without copying them, and is valid only
  /// for the duration of the call; a handler that keeps the bytes copies
  /// them.
  using DataFn = std::function<void(PeerId from, BytesView data)>;
  using SendDoneFn = std::function<void(Status)>;

  virtual ~D2dStack() = default;

  virtual void start() = 0;
  /// Stop advertising and scanning and withdraw every handler start() gave
  /// the device's radios. A stack that powered WiFi leaves it powered and in
  /// the mesh, as OmniNode::stop() does, so a stopped device sits at the
  /// WiFi-standby floor that the paper's energy figures are reported against.
  virtual void stop() {}
  virtual PeerId self() const = 0;

  virtual void set_advert_handler(AdvertFn fn) = 0;
  virtual void set_data_handler(DataFn fn) = 0;

  /// Begin (or replace) this node's periodic advertisement.
  virtual void advertise(Bytes info, Duration interval) = 0;
  virtual void stop_advertising() = 0;

  /// Send data to one peer.
  virtual void send(PeerId dest, Bytes data, SendDoneFn done) = 0;

  /// Broadcast bulk data to all reachable peers (multicast); optional.
  virtual bool supports_broadcast_data() const { return false; }
  virtual void broadcast_data(Bytes /*data*/, SendDoneFn done) {
    if (done) done(Status::error("broadcast data not supported"));
  }

  /// Peers this stack has discovered so far.
  virtual std::vector<PeerId> known_peers() const = 0;

  /// Human-readable stack name for reports.
  virtual const char* name() const = 0;
};

}  // namespace omni::baselines
