#pragma once

#include <string>
#include <vector>

#include "analysis/Stats.h"
#include "workload/Corpus.h"
#include "workload/World.h"

/// \file Experiment.h
/// The 7-day real-world protocol of §V-B3, as a scripted scenario:
///  - owners live in the home: they move between rooms (and floors), and
///    issue voice commands when they are in the speaker's room;
///  - a malicious guest issues pre-recorded commands, but *only when no owner
///    is in the room where the smart speaker is located* (the paper's attack
///    policy) — owners may be anywhere else, including directly upstairs or
///    outside the home.
/// Ground truth for each command is whether the cloud executed it.

namespace vg::workload {

struct ExperimentConfig {
  sim::Duration duration = sim::days(7);
  /// Mean gap between episodes (exponential). The default matches the
  /// paper's observed density: ~160 commands per 7-day case (Tables II-IV).
  sim::Duration episode_mean = sim::minutes(60);
  /// Probability an episode is an owner (legitimate) command episode.
  double legit_fraction = 0.57;
  /// How long to wait after a command before judging its outcome.
  sim::Duration settle = sim::seconds(50);
  /// Realistic diurnal schedule: owners retire to the bedrooms (upstairs in
  /// the house — walking the staircase, so the floor tracker sees it) from
  /// 23:00 to 07:00; only the attacker acts at night. Off by default to
  /// match the paper's (unspecified) protocol.
  bool night_routine = false;
  /// Probability an overnight wake-up window contains an attack attempt.
  double night_attack_prob = 0.3;
};

struct CommandOutcome {
  std::uint64_t id{0};
  bool malicious{false};
  bool executed{false};
  std::string issuer;
  std::string owner_whereabouts;  // room names at issue time
  sim::TimePoint when;
};

class ExperimentDriver {
 public:
  ExperimentDriver(SmartHomeWorld& world, ExperimentConfig cfg);

  /// Runs the full scenario; returns when the simulated duration has passed
  /// and the last command settled.
  void run();

  [[nodiscard]] const std::vector<CommandOutcome>& outcomes() const {
    return outcomes_;
  }

  /// Tables II-IV convention: malicious = positive. A malicious command that
  /// executed is a FN; a legitimate one that did not execute is a FP.
  [[nodiscard]] analysis::ConfusionMatrix confusion() const;

  [[nodiscard]] std::uint64_t legit_issued() const { return legit_issued_; }
  [[nodiscard]] std::uint64_t malicious_issued() const {
    return malicious_issued_;
  }

  [[nodiscard]] std::uint64_t night_attacks() const { return night_attacks_; }

 private:
  void owner_episode();
  void attack_episode();
  void put_owners_to_bed();
  [[nodiscard]] bool is_night() const;
  void issue_and_judge(bool malicious, const std::string& issuer);
  /// A random location anywhere that is NOT the speaker's room (other rooms,
  /// other floor, or just outside the home).
  radio::Vec3 random_away_location() const;
  std::string owner_rooms_string() const;

  SmartHomeWorld& world_;
  ExperimentConfig cfg_;
  const CommandCorpus& corpus_;
  sim::Rng& rng_;           // "experiment": episode timing and choices
  sim::Rng& spots_rng_;     // "experiment.spots": command positions
  sim::Rng& commands_rng_;  // "experiment.commands": corpus samples
  std::vector<CommandOutcome> outcomes_;
  std::uint64_t next_cmd_id_{1};
  std::uint64_t legit_issued_{0};
  std::uint64_t malicious_issued_{0};
  std::uint64_t night_attacks_{0};
  bool in_bed_{false};
};

}  // namespace vg::workload
