#include "fleet/FleetFaultOrchestrator.h"

#include <algorithm>
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

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument{"FleetFaultPlan: " + what};
}

using Window = std::pair<std::int64_t, std::int64_t>;

void check_no_overlap(std::vector<Window> ws, const std::string& what,
                      const std::string& plan) {
  std::sort(ws.begin(), ws.end());
  for (std::size_t i = 1; i < ws.size(); ++i) {
    require(ws[i].first >= ws[i - 1].second,
            "overlapping " + what + " windows in plan '" + plan + "'");
  }
}

/// No window of \p a may intersect any window of \p b (both half-open).
void check_disjoint(const std::vector<Window>& a, const std::vector<Window>& b,
                    const std::string& what, const std::string& plan) {
  for (const Window& x : a) {
    for (const Window& y : b) {
      require(x.second <= y.first || y.second <= x.first,
              what + " window collides with the base plan in '" + plan + "'");
    }
  }
}

/// The per-home cloud window a capacity event can grow to (refusal plus the
/// longest load-coupled re-admission stagger).
Window capacity_envelope(const CloudCapacityEvent& e) {
  return {e.start.ns(), (e.start + e.duration + e.recovery_spread).ns()};
}

}  // namespace

FleetFaultOrchestrator::FleetFaultOrchestrator(FleetFaultPlan plan,
                                               std::uint64_t homes)
    : plan_(std::move(plan)), homes_(homes) {
  validate(plan_, homes_);
}

void FleetFaultOrchestrator::validate(const FleetFaultPlan& plan,
                                      std::uint64_t homes) {
  require(plan.regions >= 1 && plan.regions <= kMaxRegions,
          "regions out of [1," + std::to_string(kMaxRegions) + "] in plan '" +
              plan.name + "'");
  require(homes >= plan.regions,
          "more regions than homes (guaranteed zero-home regions) in plan '" +
              plan.name + "'");

  std::vector<Window> fcm_by_region[kMaxRegions];
  for (const RegionalFcmOutage& o : plan.fcm_outages) {
    require(o.region < plan.regions, "fcm-outage region out of range in plan '" +
                                         plan.name + "'");
    require(o.start.ns() >= 0 && o.duration.ns() >= 0 &&
                o.extra_delay.ns() >= 0,
            "negative fcm-outage time in plan '" + plan.name + "'");
    require(o.drop_prob >= 0.0 && o.drop_prob <= 1.0,
            "fcm-outage drop_prob out of [0,1] in plan '" + plan.name + "'");
    fcm_by_region[o.region].emplace_back(o.start.ns(),
                                         (o.start + o.duration).ns());
  }
  for (auto& ws : fcm_by_region) {
    check_no_overlap(std::move(ws), "regional fcm-outage", plan.name);
  }

  std::vector<Window> envelopes;
  for (const CloudCapacityEvent& e : plan.cloud_capacity) {
    require(e.start.ns() >= 0 && e.duration.ns() >= 0 &&
                e.recovery_spread.ns() >= 0 && e.extra_latency.ns() >= 0,
            "negative cloud-capacity time in plan '" + plan.name + "'");
    require(e.fraction > 0.0 && e.fraction <= 1.0,
            "cloud-capacity fraction out of (0,1] in plan '" + plan.name +
                "'");
    envelopes.push_back(capacity_envelope(e));
  }
  check_no_overlap(std::move(envelopes), "cloud-capacity", plan.name);

  std::vector<Window> wan_by_region[kMaxRegions];
  for (const WanDegradeWindow& w : plan.wan_degrades) {
    require(w.region < plan.regions,
            "wan-degrade region out of range in plan '" + plan.name + "'");
    require(w.start.ns() >= 0 && w.duration.ns() >= 0 &&
                w.extra_latency.ns() >= 0,
            "negative wan-degrade time in plan '" + plan.name + "'");
    wan_by_region[w.region].emplace_back(w.start.ns(),
                                         (w.start + w.duration).ns());
  }
  for (auto& ws : wan_by_region) {
    check_no_overlap(std::move(ws), "regional wan-degrade", plan.name);
  }

  for (const GuardRestartWave& w : plan.restart_waves) {
    require(w.start.ns() >= 0 && w.stagger.ns() >= 0,
            "negative restart-wave time in plan '" + plan.name + "'");
    require(w.fraction > 0.0 && w.fraction <= 1.0,
            "restart-wave fraction out of (0,1] in plan '" + plan.name + "'");
  }
}

void FleetFaultOrchestrator::validate_against_base(
    const faults::FaultPlan& base) const {
  std::vector<Window> fleet_fcm;
  for (const RegionalFcmOutage& o : plan_.fcm_outages) {
    fleet_fcm.emplace_back(o.start.ns(), (o.start + o.duration).ns());
  }
  std::vector<Window> base_fcm;
  for (const faults::FcmFault& f : base.fcm) {
    base_fcm.emplace_back(f.start.ns(), (f.start + f.duration).ns());
  }
  check_disjoint(fleet_fcm, base_fcm, "regional fcm-outage", plan_.name);

  std::vector<Window> fleet_cloud;
  std::vector<Window> fleet_brownout;
  for (const CloudCapacityEvent& e : plan_.cloud_capacity) {
    fleet_cloud.push_back(capacity_envelope(e));
    fleet_brownout.emplace_back(e.start.ns(), (e.start + e.duration).ns());
  }
  std::vector<Window> base_cloud;
  for (const faults::CloudOutage& f : base.cloud) {
    base_cloud.emplace_back(f.start.ns(), (f.start + f.duration).ns());
  }
  std::vector<Window> base_brownout;
  for (const faults::CloudBrownout& f : base.brownouts) {
    base_brownout.emplace_back(f.start.ns(), (f.start + f.duration).ns());
  }
  check_disjoint(fleet_cloud, base_cloud, "cloud-capacity", plan_.name);
  check_disjoint(fleet_brownout, base_brownout, "cloud-capacity brownout",
                 plan_.name);

  std::vector<Window> fleet_wan;
  for (const WanDegradeWindow& w : plan_.wan_degrades) {
    fleet_wan.emplace_back(w.start.ns(), (w.start + w.duration).ns());
  }
  std::vector<Window> base_wan_latency;
  for (const faults::LinkFault& f : base.links) {
    if (f.where == faults::LinkFault::Where::kWan &&
        f.kind == faults::LinkFault::Kind::kLatencySpike) {
      base_wan_latency.emplace_back(f.start.ns(), (f.start + f.duration).ns());
    }
  }
  check_disjoint(fleet_wan, base_wan_latency, "wan-degrade", plan_.name);
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

sim::Duration FleetFaultOrchestrator::last_window_end() const {
  sim::Duration end{};
  for (const RegionalFcmOutage& o : plan_.fcm_outages) {
    end = std::max(end, o.start + o.duration);
  }
  for (const CloudCapacityEvent& e : plan_.cloud_capacity) {
    end = std::max(end, e.start + e.duration + e.recovery_spread);
  }
  for (const WanDegradeWindow& w : plan_.wan_degrades) {
    end = std::max(end, w.start + w.duration);
  }
  for (const GuardRestartWave& w : plan_.restart_waves) {
    end = std::max(end, w.start + w.stagger);
  }
  return end;
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
