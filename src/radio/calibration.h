// Physical-layer calibration constants.
//
// Every physical constant in the radio models lives here. Current draws come
// straight from the paper's Table 3 (measured on their Raspberry Pi 3 testbed
// with an AVHzY CT-2 USB power meter, relative to WiFi-standby). Timing
// constants are calibrated so the controlled comparison (paper Table 4)
// reproduces the paper's latency structure:
//
//   * WiFi network scan + mesh join  =>  the ~3.2 s discovery cliff that every
//     approach pays when context rides on WiFi multicast;
//   * TCP setup ~16 ms when the peer's mesh address is already known (Omni's
//     BLE-context rows);
//   * ~8.1 MB/s effective TCP capacity => 25 MB in ~3.1 s;
//   * 802.11 multicast base-rate + contention overhead => the slow multicast
//     data path and the ~8 % TCP impediment of Table 5.
//
// EXPERIMENTS.md discusses each calibrated value next to the paper number it
// reproduces.
#pragma once

#include <cstddef>

#include "common/time.h"

namespace omni::radio {

struct Calibration {
  // --- Current draw (mA). Table 3 of the paper; values are *added* draw on
  // top of WiFi-standby, which itself draws wifi_standby_ma above the
  // radios-off floor.
  double wifi_standby_ma = 92.1;
  double wifi_receive_ma = 162.4;
  double wifi_send_ma = 183.3;
  double wifi_scan_ma = 129.2;
  double wifi_connect_ma = 169.0;
  double ble_scan_ma = 7.0;
  double ble_advertise_ma = 8.2;

  // --- BLE timing.
  /// Airtime + controller time for one advertising event (3 channels).
  Duration ble_adv_event = Duration::millis(10);
  /// Legacy advertisement payload ceiling (Bluetooth 4.x). The paper's
  /// future-work item — Bluetooth 5 extended advertisements — raises this;
  /// see ble_extended_advertising below.
  std::size_t ble_legacy_adv_payload = 31;
  std::size_t ble_extended_adv_payload = 255;
  bool ble_extended_advertising = false;
  /// Probability a continuously-running scanner captures a given in-range
  /// advertising event (channel overlap + collisions).
  double ble_capture_probability = 0.9;
  /// Interval used when a small *data* payload is pushed through BLE: the
  /// sender switches to fast advertising until the exchange acks. Mean
  /// one-way latency is interval/2 + event time = 41 ms, so a request +
  /// response interaction lands on the paper's 82 ms BLE service latency.
  Duration ble_fast_adv_interval = Duration::millis(62);

  // --- WiFi-Mesh timing.
  /// Full 802.11 network scan (all channels).
  Duration wifi_scan_duration = Duration::millis(2500);
  /// Mesh peering + SAE authentication once the network is known.
  Duration wifi_join_duration = Duration::millis(250);
  /// One-way latency of a unicast frame inside the mesh.
  Duration wifi_rtt = Duration::millis(2);
  /// Stack/setup overhead for a TCP exchange beyond the 3-way handshake.
  Duration tcp_setup_overhead = Duration::millis(10);
  /// How long a TCP connection attempt to an unreachable peer lingers before
  /// failing (drives Omni's technology-failover path).
  Duration tcp_connect_timeout = Duration::millis(1000);

  // --- WiFi address-resolution ritual.
  //
  // A peer mapping learned through application-level multicast (rather than
  // integrated low-level neighbor discovery) must be re-validated before
  // data transfer: scan for the network, join it, and resolve the peer
  // (paper §4.2's explanation of the multi-second State-of-the-Art/Practice
  // latencies). scan + join + query = ~2.79 s; waiting out the peer's next
  // 500 ms service advertisement adds wifi_advert_wait for ~3.23 s total.
  /// Unicast query/response to resolve a peer address once joined.
  Duration wifi_resolve_query = Duration::millis(43);
  /// Mean wait for the peer's next periodic service advertisement when the
  /// service itself must also be (re)discovered over WiFi.
  Duration wifi_advert_wait = Duration::millis(436);
  /// Maintenance rescan period for WiFi-multicast-based discovery (footnote
  /// 12: the environment cannot be assumed static). The multicast plugin
  /// and the SA and SP-WiFi baselines rescan at it, the first time at half
  /// a period.
  Duration wifi_maintenance_scan_period = Duration::seconds(60);
  /// Processing burst charged per multicast probe window (paper §3.3's
  /// periodic listen on non-engaged technologies): frames already reach a
  /// joined standby radio, so a probe only pays to wake and process them.
  Duration wifi_probe_listen_burst = Duration::millis(10);
  /// Effective shared channel capacity available to fluid TCP flows.
  double wifi_capacity_Bps = 8.1e6;
  /// 802.11 multicast frames go out at the lowest basic rate.
  double wifi_multicast_base_rate_bps = 6e6;
  /// Fixed channel occupancy per multicast frame: contention, preamble,
  /// and the rate-adaptation stall the paper attributes to "devices with the
  /// weakest signal strength and slowest radios".
  Duration wifi_multicast_overhead = Duration::millis(8);
  /// Payload bytes per multicast datagram (bulk data is fragmented to this).
  std::size_t wifi_multicast_mtu = 1400;
  /// Energy burst for one small multicast *context* send (driver wakeup +
  /// queueing + airtime), charged at wifi_send_ma. Dominates the cost of
  /// naive 500 ms multicast advertising (paper §4.1).
  Duration wifi_multicast_send_burst = Duration::millis(30);
  /// Channel occupancy of one small multicast discovery beacon: management
  /// framing, DTIM buffering and retries at the lowest rate. Feeds the
  /// periodic-load deduction that slows concurrent TCP flows.
  Duration wifi_multicast_beacon_occupancy = Duration::millis(14);

  // --- WiFi power/duty modelling for bulk flows.
  /// Fraction of wall time the radio stays awake while any stream (flow or
  /// rate-limited download) is in progress, regardless of the stream's
  /// rate: interrupts, polling, and inter-frame listen keep a mesh-mode
  /// adapter out of power-save. This reproduces the paper's Disseminate
  /// energy being nearly rate-independent for the infrastructure leg
  /// (~67-80 mA at both 100 and 1000 KBps).
  double wifi_stream_duty = 0.4;
  /// Reverse-direction activity of a TCP endpoint (ACK stream, driver
  /// interrupts) as a fraction of the forward active time. The paper's
  /// 25 MB rows draw well above the pure receive current, implying the
  /// radio is substantially busy in both directions during a transfer.
  double tcp_reverse_activity_factor = 0.5;

  // --- WiFi-Aware (Neighbor Awareness Networking).
  //
  // The paper's §3.2 names WiFi-Aware as the coming replacement for
  // multicast-based WiFi context transmission. The model: all NAN devices
  // synchronize to a global discovery-window (DW) schedule; a device wakes
  // for nan_dw_duration every nan_dw_period, exchanging service discovery
  // frames and small follow-ups, and sleeps (WiFi-standby) in between —
  // low-duty discovery at WiFi range, no network membership required.
  /// DW period (512 TU in the spec, ~524 ms).
  Duration nan_dw_period = Duration::millis(524);
  /// DW duration (16 TU, ~16 ms), charged at WiFi-receive draw.
  Duration nan_dw_duration = Duration::millis(16);
  /// Airtime per transmitted service discovery frame inside a DW.
  Duration nan_frame_airtime = Duration::millis(1);
  /// Service-info payload ceiling per SDF.
  std::size_t nan_max_payload = 255;
  /// Follow-up datagram ceiling.
  std::size_t nan_max_followup = 512;

  // --- Radio ranges (meters).
  double ble_range_m = 40.0;
  double wifi_range_m = 100.0;
  double nan_range_m = 100.0;

  static const Calibration& defaults();
};

}  // namespace omni::radio
