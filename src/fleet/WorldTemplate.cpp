#include "fleet/WorldTemplate.h"

#include <stdexcept>
#include <string>

#include "simcore/Rng.h"
#include "workload/ScenarioRun.h"

namespace vg::fleet {

WorldTemplate::WorldTemplate(scenario::ScenarioSpec base)
    : base_(std::move(base)) {
  if (!base_.scripted()) {
    throw std::invalid_argument{"scenario '" + base_.name +
                                "' is not a scripted home scenario; a fleet "
                                "template needs a scripted schedule"};
  }
  // Validate-before-install: a malformed fleet plan (or one colliding with
  // the base [faults]) is rejected before any world is built or armed.
  if (!base_.fleet_faults.empty() || base_.fleet_faults.resilience.any()) {
    orchestrator_ =
        std::make_unique<FleetFaultOrchestrator>(base_.fleet_faults, homes());
    orchestrator_->validate_against_base(base_.faults);
  }
  workload::WorldConfig cfg = workload::world_config_from_spec(base_);
  testbed_ = std::make_unique<home::Testbed>(workload::make_testbed(cfg.testbed));

  // One full calibration run; every home reuses its learned artifacts. The
  // calibration world borrows the shared testbed too, so its geometry is
  // byte-identical to what the homes will query.
  cfg.shared_testbed = testbed_.get();
  workload::SmartHomeWorld world{cfg};
  world.calibrate();
  artifacts_ = world.calibration_artifacts();
}

std::uint64_t WorldTemplate::home_seed(std::uint64_t index) const {
  if (index == 0) return base_.seed;
  return sim::splitmix64(base_.seed + index * 0x9E3779B97F4A7C15ull);
}

scenario::ScenarioSpec WorldTemplate::home_spec(std::uint64_t index) const {
  scenario::ScenarioSpec spec = base_;
  spec.population = {};    // the derived spec describes a single home
  spec.fleet_faults = {};  // fleet events land in [faults] below

  if (index != 0) {
    spec.seed = home_seed(index);
    spec.name = base_.name + "-h" + std::to_string(index);
    spec.faults.name = spec.name;

    // The jitter stream is decoupled from the home's world seed so changing
    // jitter bounds never perturbs in-world draws and vice versa.
    sim::Rng rng{sim::splitmix64(home_seed(index) ^ 0xF1EE7000F1EE7000ull)};
    const auto jitter_ms = static_cast<std::int64_t>(
        base_.population.command_jitter_s * 1000.0);
    const double flip = base_.population.attack_flip;

    sim::Duration shift{};
    for (scenario::CommandStep& step : spec.schedule.commands) {
      // Extra gap *before* each command accumulates, so inter-command gaps
      // only grow and the schedule stays strictly increasing and
      // loader-valid.
      shift = shift + sim::milliseconds(rng.uniform_int(0, jitter_ms));
      step.at = step.at + shift;
      if (rng.chance(flip)) step.attack = !step.attack;
    }
    spec.schedule.drain = spec.schedule.drain + shift;
  }
  spec.fleet_faults.name = spec.name;  // the loader's mirror, preserved

  // The orchestrated delta is a pure function of (plan, home seed): every
  // shard layout derives the same per-home plan. Fault offsets are relative
  // to arm like the base plan's, so command jitter never shifts them.
  if (orchestrator_ != nullptr) {
    orchestrator_->apply(home_seed(index), spec.faults);
  }
  return spec;
}

}  // namespace vg::fleet
