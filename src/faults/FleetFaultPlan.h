#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/FaultPlan.h"
#include "simcore/Simulation.h"

/// \file FleetFaultPlan.h
/// Declarative, deterministic *fleet-level* fault schedules: events scoped to
/// a population of homes rather than one testbed. Like faults::FaultPlan this
/// is pure data — every time is relative to the instant each home arms its
/// plan, regions are a pure function of the home seed, and no randomness
/// lives here — so FleetFaultOrchestrator can expand the same plan into
/// bit-identical per-home faults::FaultPlans at any shard count.
///
/// The types keep the fleet namespace but live in vg_faults next to
/// faults::FaultPlan, so the `.scn` loader (the `[fleet_faults]` section) and
/// the orchestrator share one validator without vg_scenario linking vg_fleet.

namespace vg::fleet {

/// Regions a fleet plan may address. Homes hash into [0, regions) from their
/// seed; plans validate regions <= homes so no region is guaranteed empty.
inline constexpr std::uint32_t kMaxRegions = 16;

/// Client-side resilience policy the plan's storms exercise. Applied to every
/// home in the population (WorldConfig knobs); the defaults are the seed
/// behavior (no backoff escalation, no jitter, no budgets).
struct ResiliencePolicy {
  double reconnect_backoff{1.0};  // EchoDot window scale per failed attempt
  sim::Duration reconnect_backoff_cap{sim::seconds(60)};
  int reconnect_budget{0};        // fast retries per streak; 0 = unbounded
  double fcm_retry_jitter{0.0};   // fraction shaved off guard FCM retry waits
  int fcm_retry_budget{0};        // guard re-push cap per home; 0 = unbounded

  [[nodiscard]] bool any() const {
    return reconnect_backoff != 1.0 ||
           reconnect_backoff_cap != sim::seconds(60) ||
           reconnect_budget != 0 || fcm_retry_jitter != 0.0 ||
           fcm_retry_budget != 0;
  }

  friend bool operator==(const ResiliencePolicy&,
                         const ResiliencePolicy&) = default;
};

/// A regional FCM incident: every home in \p region gets an FcmFault window
/// (drops + extra delay) for [start, start+duration).
struct RegionalFcmOutage {
  std::uint32_t region{0};
  sim::Duration start{};
  sim::Duration duration{};
  sim::Duration extra_delay{};
  double drop_prob{1.0};

  friend bool operator==(const RegionalFcmOutage&,
                         const RegionalFcmOutage&) = default;
};

/// A shared cloud-backend capacity incident. A deterministic \p fraction of
/// the whole fleet is refused admission (per-home CloudOutage) with
/// re-admission staggered across [0, recovery_spread) scaled by the load —
/// the saturated pool drains its backlog gradually. Every home, refused or
/// not, sees a CloudBrownout of extra_latency * fraction for the window:
/// commands still execute, just slower, coupled to how much of the fleet is
/// hammering the pool.
struct CloudCapacityEvent {
  sim::Duration start{};
  sim::Duration duration{};
  double fraction{1.0};  // share of the fleet refused admission, (0,1]
  bool rst_existing{false};
  sim::Duration recovery_spread{};
  sim::Duration extra_latency{};

  friend bool operator==(const CloudCapacityEvent&,
                         const CloudCapacityEvent&) = default;
};

/// Correlated WAN degradation: every home in \p region gets a WAN latency
/// spike of \p extra_latency for the window.
struct WanDegradeWindow {
  std::uint32_t region{0};
  sim::Duration start{};
  sim::Duration duration{};
  sim::Duration extra_latency{sim::milliseconds(200)};

  friend bool operator==(const WanDegradeWindow&,
                         const WanDegradeWindow&) = default;
};

/// A staggered guard-restart wave: a deterministic \p fraction of the fleet
/// restarts its guard box once, each home at start + a seed-derived offset in
/// [0, stagger) — a rolling fleet upgrade, not a synchronized crash.
struct GuardRestartWave {
  sim::Duration start{};
  sim::Duration stagger{sim::seconds(10)};
  double fraction{1.0};

  friend bool operator==(const GuardRestartWave&,
                         const GuardRestartWave&) = default;
};

struct FleetFaultPlan {
  std::string name{"fleet-baseline"};
  std::uint32_t regions{1};
  std::vector<RegionalFcmOutage> fcm_outages;
  std::vector<CloudCapacityEvent> cloud_capacity;
  std::vector<WanDegradeWindow> wan_degrades;
  std::vector<GuardRestartWave> restart_waves;
  ResiliencePolicy resilience;

  /// True when the plan schedules no fleet events. A resilience-only plan is
  /// "empty" for injection purposes but still reconfigures the clients.
  [[nodiscard]] bool empty() const {
    return fcm_outages.empty() && cloud_capacity.empty() &&
           wan_degrades.empty() && restart_waves.empty();
  }
  [[nodiscard]] std::size_t total_events() const {
    return fcm_outages.size() + cloud_capacity.size() + wan_degrades.size() +
           restart_waves.size();
  }
  [[nodiscard]] std::string to_string() const {
    std::string s = name + " [" + std::to_string(regions) + " region, ";
    s += std::to_string(fcm_outages.size()) + " fcm-outage, ";
    s += std::to_string(cloud_capacity.size()) + " cloud-capacity, ";
    s += std::to_string(wan_degrades.size()) + " wan-degrade, ";
    s += std::to_string(restart_waves.size()) + " restart-wave";
    s += resilience.any() ? ", resilience]" : "]";
    return s;
  }

  friend bool operator==(const FleetFaultPlan&, const FleetFaultPlan&) = default;
};

/// Every rule a fleet plan obeys for \p homes homes that all run \p base:
/// region bounds, per-event ranges, no overlap within a region (a capacity
/// event spans its recovery spread too) and no window colliding with a base
/// window of the group the injector merges it into.
std::optional<faults::PlanViolation> validate(const FleetFaultPlan& plan,
                                              std::uint64_t homes,
                                              const faults::FaultPlan& base);

}  // namespace vg::fleet
