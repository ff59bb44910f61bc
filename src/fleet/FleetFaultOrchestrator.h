#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/FaultPlan.h"
#include "faults/FleetFaultPlan.h"

/// \file FleetFaultOrchestrator.h
/// Expands a FleetFaultPlan into per-home faults::FaultPlans, validate-
/// before-install style: the constructor rejects malformed plans (bad region
/// fractions, overlapping regional windows, regions guaranteed empty, windows
/// meeting the base plan) before anything is armed, and apply() is a pure
/// function of (plan, home seed) — no cross-home or cross-shard state — so
/// serial and sharded fleet runs derive bit-identical faults for every home
/// regardless of shard layout or residency order.
///
/// Determinism contract:
///  - region_of(home_seed) hashes the seed (splitmix64) into [0, regions);
///  - fractional selections (cloud refusal, restart waves) threshold a
///    per-(home, event) hash against the fraction;
///  - load coupling is *expected* load, never live state: a capacity event's
///    staggered re-admission and brownout latency scale with the configured
///    fraction of the fleet, not with how many homes happen to be resident.

namespace vg::fleet {

class FleetFaultOrchestrator {
 public:
  /// Checks \p plan with fleet::validate for a fleet of \p homes that all
  /// run \p base (throws std::invalid_argument) and captures it.
  FleetFaultOrchestrator(FleetFaultPlan plan, std::uint64_t homes,
                         const faults::FaultPlan& base);

  [[nodiscard]] std::uint32_t region_of(std::uint64_t home_seed) const;

  /// Expands the plan for one home and appends the delta to \p out (which
  /// already carries the home's base plan). Returns the number of fault
  /// entries added; sets out.may_break_connections when the delta warrants
  /// it (refusal outages, restart waves).
  std::size_t apply(std::uint64_t home_seed, faults::FaultPlan& out) const;

 private:
  FleetFaultPlan plan_;
};

/// Named orchestrated plans for `vgscn fleet --fault-plan` and the chaos
/// bench matrix. The first entry is the empty "fleet-baseline".
const std::vector<FleetFaultPlan>& fleet_fault_plans();
/// nullptr when \p name is not a known plan.
const FleetFaultPlan* fleet_fault_plan(const std::string& name);

}  // namespace vg::fleet
