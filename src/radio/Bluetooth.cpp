#include "radio/Bluetooth.h"

#include <cmath>

namespace vg::radio {

BluetoothScanner::BluetoothScanner(sim::Simulation& sim, const FloorPlan& plan,
                                   PathLossParams params, std::string name,
                                   PositionFn pos, ScanParams scan)
    : sim_(sim),
      name_(std::move(name)),
      pos_(std::move(pos)),
      scan_(scan),
      cache_(plan, params, scan.cache_slots),
      rssi_rng_(sim.rng("radio.rssi." + name_)),
      scan_rng_(sim.rng("radio.scan." + name_)) {}

double BluetoothScanner::measure_now(const BluetoothBeacon& beacon) {
  double rssi = cache_.sample_rssi(beacon.position(), pos_(), rssi_rng_);
  if (scan_.quantize) rssi = std::round(rssi);
  return rssi;
}

void BluetoothScanner::measure(const BluetoothBeacon& beacon, MeasureCallback cb) {
  const sim::Duration latency{
      scan_rng_.uniform_int(scan_.min_latency.ns(), scan_.max_latency.ns())};
  sim_.after(latency, [this, &beacon, cb = std::move(cb)] {
    cb(measure_now(beacon));
  });
}

}  // namespace vg::radio
