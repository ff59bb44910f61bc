#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "radio/Bluetooth.h"
#include "simcore/Simulation.h"

/// \file MobileDevice.h
/// The owner's smartphone or smartwatch running the VoiceGuard companion app.
/// It can (a) answer an RSSI-measurement request pushed over FCM — wake in
/// the background, scan the speaker's Bluetooth, report the value back — and
/// (b) sample continuously (threshold-learning walk, floor-tracker traces).

namespace vg::home {

enum class DeviceKind { kSmartphone, kSmartwatch };

class MobileDevice {
 public:
  struct Options {
    DeviceKind kind{DeviceKind::kSmartphone};
    radio::ScanParams scan{};
    /// Report uplink latency (device -> VoiceGuard host over home WiFi).
    sim::Duration report_latency_min = sim::milliseconds(40);
    sim::Duration report_latency_max = sim::milliseconds(180);
  };

  MobileDevice(sim::Simulation& sim, const radio::FloorPlan& plan,
               radio::PathLossParams params, std::string name,
               radio::BluetoothScanner::PositionFn carrier_position)
      : MobileDevice(sim, plan, params, std::move(name),
                     std::move(carrier_position), Options{}) {}

  MobileDevice(sim::Simulation& sim, const radio::FloorPlan& plan,
               radio::PathLossParams params, std::string name,
               radio::BluetoothScanner::PositionFn carrier_position,
               Options opts);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] DeviceKind kind() const { return opts_.kind; }
  [[nodiscard]] std::string fcm_token() const { return "fcm:" + name_; }

  /// Where the device actually is: with its carrier, unless it has been put
  /// down somewhere (e.g. left charging next to the speaker — the
  /// non-applicable scenario of §VII).
  [[nodiscard]] radio::Vec3 position() const;
  /// put_down / pick_up are device-movement events: besides switching the
  /// position source they bump the scanner's path-loss cache epoch, so stale
  /// means from the previous posture can never be served (positions key the
  /// cache already; the bump is the coarse belt-and-suspenders invalidation).
  void put_down(radio::Vec3 spot) {
    placed_ = spot;
    scanner_.propagation_cache().invalidate();
  }
  void pick_up() {
    placed_.reset();
    scanner_.propagation_cache().invalidate();
  }
  [[nodiscard]] bool is_placed() const { return placed_.has_value(); }

  /// Crash / no-response control: an unresponsive device silently ignores
  /// measurement requests (battery died, app killed by the OS — §VII's
  /// unavailable-device discussion). Pushes are still delivered by FCM; they
  /// just go unanswered.
  void set_responsive(bool responsive) { responsive_ = responsive; }
  [[nodiscard]] bool responsive() const { return responsive_; }
  [[nodiscard]] std::uint64_t ignored_requests() const { return ignored_; }

  /// Background measurement (FCM path): scan latency + one reading + report
  /// uplink latency, then \p report fires at the Decision Module.
  void handle_measure_request(const radio::BluetoothBeacon& beacon,
                              std::function<void(double)> report);

  /// Foreground continuous-scan sample (no scan latency; see
  /// BluetoothScanner::measure_now).
  double instant_rssi(const radio::BluetoothBeacon& beacon) {
    return scanner_.measure_now(beacon);
  }

  /// The scanner's memoized path-loss state (cache hit/miss counters etc.).
  [[nodiscard]] radio::PropagationCache& propagation_cache() {
    return scanner_.propagation_cache();
  }

 private:
  sim::Simulation& sim_;
  std::string name_;
  Options opts_;
  radio::BluetoothScanner::PositionFn carrier_;
  std::optional<radio::Vec3> placed_;
  radio::BluetoothScanner scanner_;
  sim::Rng& uplink_rng_;
  bool responsive_{true};
  std::uint64_t ignored_{0};
};

}  // namespace vg::home
