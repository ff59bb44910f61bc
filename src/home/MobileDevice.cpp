#include "home/MobileDevice.h"

namespace vg::home {

MobileDevice::MobileDevice(sim::Simulation& sim, const radio::FloorPlan& plan,
                           radio::PathLossParams params, std::string name,
                           radio::BluetoothScanner::PositionFn carrier_position,
                           Options opts)
    : sim_(sim),
      name_(std::move(name)),
      opts_(opts),
      carrier_(std::move(carrier_position)),
      scanner_(sim, plan, params, name_, [this] { return position(); },
               opts.scan),
      uplink_rng_(sim.rng("home.device." + name_ + ".uplink")) {}

radio::Vec3 MobileDevice::position() const {
  if (placed_) return *placed_;
  return carrier_();
}

void MobileDevice::handle_measure_request(
    const radio::BluetoothBeacon& beacon, std::function<void(double)> report) {
  if (!responsive_) {
    ++ignored_;
    return;
  }
  scanner_.measure(beacon, [this, report = std::move(report)](double rssi) {
    const sim::Duration uplink{uplink_rng_.uniform_int(
        opts_.report_latency_min.ns(), opts_.report_latency_max.ns())};
    sim_.after(uplink, [report, rssi] { report(rssi); });
  });
}

}  // namespace vg::home
