#include "fleet/FleetFaultOrchestrator.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "simcore/Rng.h"

namespace vg::fleet {

namespace {

// Per-purpose salts so the region hash, the refusal draw, the re-admission
// stagger and the wave draws are mutually decorrelated.
constexpr std::uint64_t kRegionSalt = 0xF1EE7F00D5EED001ull;
constexpr std::uint64_t kRefusalSalt = 0xF1EE7F00D5EED002ull;
constexpr std::uint64_t kStaggerSalt = 0xF1EE7F00D5EED003ull;
constexpr std::uint64_t kWaveSalt = 0xF1EE7F00D5EED004ull;
constexpr std::uint64_t kWaveOffsetSalt = 0xF1EE7F00D5EED005ull;

/// Deterministic uniform in [0,1) for (home, salt, event-index).
double u01(std::uint64_t home_seed, std::uint64_t salt, std::size_t idx) {
  const std::uint64_t h =
      sim::splitmix64(home_seed ^ salt ^ (idx * 0x9E3779B97F4A7C15ull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FleetFaultOrchestrator::FleetFaultOrchestrator(FleetFaultPlan plan,
                                               std::uint64_t homes,
                                               const faults::FaultPlan& base)
    : plan_(std::move(plan)) {
  if (auto v = validate(plan_, homes, base)) {
    throw std::invalid_argument{"FleetFaultPlan: " + v->describe(plan_.name)};
  }
}

std::uint32_t FleetFaultOrchestrator::region_of(std::uint64_t home_seed) const {
  return static_cast<std::uint32_t>(
      sim::splitmix64(home_seed ^ kRegionSalt) % plan_.regions);
}

std::size_t FleetFaultOrchestrator::apply(std::uint64_t home_seed,
                                          faults::FaultPlan& out) const {
  const std::uint32_t region = region_of(home_seed);
  std::size_t added = 0;

  for (const RegionalFcmOutage& o : plan_.fcm_outages) {
    if (o.region != region) continue;
    out.fcm.push_back(
        faults::FcmFault{o.start, o.duration, o.extra_delay, o.drop_prob});
    ++added;
  }

  for (std::size_t i = 0; i < plan_.cloud_capacity.size(); ++i) {
    const CloudCapacityEvent& e = plan_.cloud_capacity[i];
    // Everyone shares the saturated pool: a brownout whose extra latency is
    // coupled to the share of the fleet hammering it.
    const auto extra_ns = static_cast<std::int64_t>(
        std::llround(static_cast<double>(e.extra_latency.ns()) * e.fraction));
    if (extra_ns > 0) {
      out.brownouts.push_back(faults::CloudBrownout{
          e.start, e.duration, sim::Duration{extra_ns}});
      ++added;
    }
    // The refused fraction additionally loses admission, with re-admission
    // staggered across the load-scaled spread so recovery drains gradually
    // instead of stampeding.
    if (u01(home_seed, kRefusalSalt, i) < e.fraction) {
      const auto stagger_ns = static_cast<std::int64_t>(
          std::llround(u01(home_seed, kStaggerSalt, i) *
                       static_cast<double>(e.recovery_spread.ns()) *
                       e.fraction));
      out.cloud.push_back(faults::CloudOutage{
          e.start, e.duration + sim::Duration{stagger_ns}, e.rst_existing});
      out.may_break_connections = true;
      ++added;
    }
  }

  for (const WanDegradeWindow& w : plan_.wan_degrades) {
    if (w.region != region) continue;
    faults::LinkFault f;
    f.where = faults::LinkFault::Where::kWan;
    f.kind = faults::LinkFault::Kind::kLatencySpike;
    f.start = w.start;
    f.duration = w.duration;
    f.extra_latency = w.extra_latency;
    out.links.push_back(f);
    ++added;
  }

  for (std::size_t i = 0; i < plan_.restart_waves.size(); ++i) {
    const GuardRestartWave& w = plan_.restart_waves[i];
    if (u01(home_seed, kWaveSalt, i) >= w.fraction) continue;
    const auto offset_ns = static_cast<std::int64_t>(
        std::llround(u01(home_seed, kWaveOffsetSalt, i) *
                     static_cast<double>(w.stagger.ns())));
    sim::Duration at = w.start + sim::Duration{offset_ns};
    // The injector rejects duplicate restart instants; nudge until unique
    // (deterministic, and vanishingly rare with ns-resolution offsets).
    auto collides = [&out](sim::Duration t) {
      for (const faults::GuardRestart& r : out.restarts) {
        if (r.at == t) return true;
      }
      return false;
    };
    while (collides(at)) at += sim::Duration{1};
    out.restarts.push_back(faults::GuardRestart{at});
    out.may_break_connections = true;
    ++added;
  }

  return added;
}

// --- named plans -------------------------------------------------------------

namespace {

std::vector<FleetFaultPlan> make_fleet_fault_plans() {
  std::vector<FleetFaultPlan> plans;

  {
    FleetFaultPlan p;
    p.name = "fleet-baseline";
    plans.push_back(p);
  }

  {
    // The acceptance scenario: an FCM incident takes out two of four regions
    // for 30 s mid-schedule; guards retry with jittered backoff on a budget.
    FleetFaultPlan p;
    p.name = "regional-fcm-outage";
    p.regions = 4;
    p.fcm_outages.push_back(RegionalFcmOutage{
        0, sim::seconds(20), sim::seconds(30), sim::milliseconds(500), 1.0});
    p.fcm_outages.push_back(RegionalFcmOutage{
        2, sim::seconds(35), sim::seconds(30), sim::milliseconds(500), 1.0});
    p.resilience.fcm_retry_jitter = 0.5;
    p.resilience.fcm_retry_budget = 64;
    plans.push_back(p);
  }

  {
    // Shared-pool saturation: 60% of the fleet refused for 25 s, re-admitted
    // across a 15 s load-scaled spread; everyone sees the brownout latency.
    FleetFaultPlan p;
    p.name = "cloud-capacity-crunch";
    p.cloud_capacity.push_back(CloudCapacityEvent{
        sim::seconds(20), sim::seconds(25), 0.6, false, sim::seconds(15),
        sim::milliseconds(400)});
    p.resilience.reconnect_backoff = 2.0;
    p.resilience.reconnect_backoff_cap = sim::seconds(16);
    p.resilience.reconnect_budget = 6;
    plans.push_back(p);
  }

  {
    // Correlated WAN degradation rolling across three of four regions.
    FleetFaultPlan p;
    p.name = "wan-degrade-wave";
    p.regions = 4;
    p.wan_degrades.push_back(WanDegradeWindow{
        0, sim::seconds(20), sim::seconds(20), sim::milliseconds(250)});
    p.wan_degrades.push_back(WanDegradeWindow{
        1, sim::seconds(30), sim::seconds(20), sim::milliseconds(250)});
    p.wan_degrades.push_back(WanDegradeWindow{
        2, sim::seconds(40), sim::seconds(20), sim::milliseconds(250)});
    plans.push_back(p);
  }

  {
    // A rolling guard upgrade: half the fleet restarts once, staggered over
    // 20 s so the speakers' reconnects never line up.
    FleetFaultPlan p;
    p.name = "restart-wave";
    p.restart_waves.push_back(
        GuardRestartWave{sim::seconds(25), sim::seconds(20), 0.5});
    p.resilience.reconnect_backoff = 2.0;
    p.resilience.reconnect_backoff_cap = sim::seconds(16);
    p.resilience.reconnect_budget = 6;
    plans.push_back(p);
  }

  {
    // Everything at once: the correlated-storm worst case the recovery
    // histograms are for.
    FleetFaultPlan p;
    p.name = "correlated-storm";
    p.regions = 2;
    p.fcm_outages.push_back(RegionalFcmOutage{
        1, sim::seconds(20), sim::seconds(25), sim::milliseconds(500), 1.0});
    p.cloud_capacity.push_back(CloudCapacityEvent{
        sim::seconds(55), sim::seconds(20), 0.5, true, sim::seconds(12),
        sim::milliseconds(300)});
    p.wan_degrades.push_back(WanDegradeWindow{
        0, sim::seconds(20), sim::seconds(25), sim::milliseconds(200)});
    p.restart_waves.push_back(
        GuardRestartWave{sim::seconds(95), sim::seconds(15), 0.3});
    p.resilience.reconnect_backoff = 2.0;
    p.resilience.reconnect_backoff_cap = sim::seconds(16);
    p.resilience.reconnect_budget = 6;
    p.resilience.fcm_retry_jitter = 0.5;
    p.resilience.fcm_retry_budget = 64;
    plans.push_back(p);
  }

  return plans;
}

}  // namespace

const std::vector<FleetFaultPlan>& fleet_fault_plans() {
  static const std::vector<FleetFaultPlan> plans = make_fleet_fault_plans();
  return plans;
}

const FleetFaultPlan* fleet_fault_plan(const std::string& name) {
  for (const FleetFaultPlan& p : fleet_fault_plans()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

}  // namespace vg::fleet
