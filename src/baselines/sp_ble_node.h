// State of the Practice, BLE-only variant.
//
// The application is hand-coded directly against the BLE radio: it
// advertises its own info, scans at a hand-tuned low duty cycle while idle
// (which is why the paper's SP BLE/BLE row shows near-zero BLE energy — and
// a *negative* total, since the WiFi radio is simply switched off), and
// exchanges small datagrams via fast advertising.
#pragma once

#include <map>

#include "baselines/d2d_stack.h"
#include "net/device.h"
#include "net/link_frame.h"

namespace omni::baselines {

class SpBleNode final : public D2dStack {
 public:
  explicit SpBleNode(net::Device& device) : device_(device) {}

  void start() override;
  void stop() override;
  PeerId self() const override { return device_.omni_address().value; }

  void set_advert_handler(AdvertFn fn) override { on_advert_ = std::move(fn); }
  void set_data_handler(DataFn fn) override { on_data_ = std::move(fn); }

  void advertise(Bytes info, Duration interval) override;
  void stop_advertising() override;
  void send(PeerId dest, Bytes data, SendDoneFn done) override;
  std::vector<PeerId> known_peers() const override;
  const char* name() const override { return "SP(BLE)"; }

 private:
  /// Hand-tuned scanner duty (the developer knows the app's own schedule,
  /// so it scans just enough to eventually discover peers).
  static constexpr double kIdleScanDuty = 0.05;

  void on_receive(const BleAddress& from, const Bytes& frame);

  net::Device& device_;
  bool started_ = false;
  AdvertFn on_advert_;
  DataFn on_data_;
  radio::AdvertisementId advert_ = 0;
  struct Peer {
    BleAddress address;
    TimePoint last_seen;
  };
  std::map<PeerId, Peer> peers_;
};

}  // namespace omni::baselines
