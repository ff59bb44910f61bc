#include "workload/Experiment.h"

#include <cmath>

namespace vg::workload {

namespace {

const CommandCorpus& corpus_for(const WorldConfig& cfg) {
  return cfg.speaker == WorldConfig::SpeakerType::kEchoDot
             ? CommandCorpus::alexa()
             : CommandCorpus::google();
}

}  // namespace

ExperimentDriver::ExperimentDriver(SmartHomeWorld& world, ExperimentConfig cfg)
    : world_(world),
      cfg_(cfg),
      corpus_(corpus_for(world.config())),
      rng_(world.sim().rng("experiment")),
      spots_rng_(world.sim().rng("experiment.spots")),
      commands_rng_(world.sim().rng("experiment.commands")) {}

bool ExperimentDriver::is_night() const {
  const double hour =
      std::fmod(world_.sim().now().seconds() / 3600.0, 24.0);
  return cfg_.night_routine && (hour >= 23.0 || hour < 7.0);
}

void ExperimentDriver::put_owners_to_bed() {
  const auto& plan = world_.testbed().plan();
  // Bedrooms where they exist; in the office the user simply goes home.
  std::vector<const radio::Room*> bedrooms;
  for (const auto& r : plan.rooms()) {
    if (r.name.rfind("bedroom", 0) == 0) bedrooms.push_back(&r);
  }
  for (int i = 0; i < world_.owner_count(); ++i) {
    radio::Vec3 bed;
    if (!bedrooms.empty()) {
      const radio::Room* r = bedrooms[static_cast<std::size_t>(i) % bedrooms.size()];
      bed = radio::Vec3{rng_.uniform(r->bounds.x0 + 0.5, r->bounds.x1 - 0.5),
                        rng_.uniform(r->bounds.y0 + 0.5, r->bounds.y1 - 0.5),
                        plan.device_height(r->floor)};
    } else {
      bed = radio::Vec3{-3.0 - i, -3.0, plan.device_height(0)};
    }
    bool asleep = false;
    world_.move_person(world_.owner(i), bed, [&asleep] { asleep = true; });
    world_.run_until([&asleep] { return asleep; }, sim::minutes(4));
    world_.run_for(sim::seconds(12));  // stair trace settles
  }
}

void ExperimentDriver::run() {
  const sim::TimePoint t_end = world_.sim().now() + cfg_.duration;
  while (world_.sim().now() < t_end) {
    const sim::Duration gap =
        sim::from_seconds(rng_.exponential_mean(cfg_.episode_mean.seconds()));
    world_.run_for(gap);
    if (world_.sim().now() >= t_end) break;

    if (is_night()) {
      if (!in_bed_) {
        put_owners_to_bed();
        in_bed_ = true;
      }
      // Only the attacker is awake; they don't strike every night window.
      if (rng_.chance(cfg_.night_attack_prob)) {
        ++night_attacks_;
        attack_episode();
      }
      continue;
    }
    in_bed_ = false;

    if (rng_.chance(cfg_.legit_fraction)) {
      owner_episode();
    } else {
      attack_episode();
    }
  }
}

std::string ExperimentDriver::owner_rooms_string() const {
  std::string s;
  const auto& plan = world_.testbed().plan();
  for (int i = 0; i < world_.owner_count(); ++i) {
    const radio::Vec3 p = world_.owner(i).position();
    const radio::Room* r = plan.room_at(p.xy(), plan.floor_of(p.z));
    if (!s.empty()) s += ",";
    s += (r != nullptr) ? r->name : "outside";
  }
  return s;
}

radio::Vec3 ExperimentDriver::random_away_location() const {
  const auto& tb = world_.testbed();
  const std::string& spk_room = tb.speaker_room(world_.config().deployment);
  // Occasionally the owner leaves the home entirely.
  if (rng_.chance(0.12)) {
    return radio::Vec3{-3.0 - rng_.uniform(0, 2), -3.0 - rng_.uniform(0, 2),
                       tb.plan().device_height(0)};
  }
  const bool office =
      world_.config().testbed == WorldConfig::TestbedKind::kOffice;
  const double margin = 0.4;
  // In the office the speaker's "room" is the whole open floor and no wall
  // marks the legitimate box, so "away" keeps the same 0.4 m clearance from
  // the box that legitimate spots keep inside it (random_legit_spot) and
  // that home spots keep from a room's walls: someone standing at the box's
  // edge is neither clearly in nor clearly out.
  radio::Rect near_box = world_.legitimate_area();
  near_box.x0 -= margin;
  near_box.y0 -= margin;
  near_box.x1 += margin;
  near_box.y1 += margin;
  for (int attempt = 0; attempt < 32; ++attempt) {
    std::vector<const radio::Room*> candidates;
    for (const auto& r : tb.plan().rooms()) {
      if (office || r.name != spk_room) candidates.push_back(&r);
    }
    const radio::Room* r = candidates[rng_.index(candidates.size())];
    const radio::Vec3 p{rng_.uniform(r->bounds.x0 + margin, r->bounds.x1 - margin),
                        rng_.uniform(r->bounds.y0 + margin, r->bounds.y1 - margin),
                        tb.plan().device_height(r->floor)};
    const bool near_bay = office && r->floor == world_.speaker_floor() &&
                          near_box.contains(p.xy());
    if (!world_.in_legitimate_area(p) && !near_bay) return p;
  }
  // Give up and go outside (cannot fail to be away there).
  return radio::Vec3{-3.0, -3.0, tb.plan().device_height(0)};
}

void ExperimentDriver::owner_episode() {
  const int who = static_cast<int>(rng_.index(
      static_cast<std::size_t>(world_.owner_count())));
  // The issuing owner walks into the legitimate command area (the speaker's
  // room; in the office, near the speaker).
  const radio::Vec3 spot = world_.random_legit_spot(spots_rng_);
  bool arrived = false;
  world_.move_person(world_.owner(who), spot, [&arrived] { arrived = true; });
  world_.run_until([&arrived] { return arrived; }, sim::minutes(4));

  // Sometimes another owner relocates meanwhile (their walk continues in the
  // background; staggered after the issuer arrived so staircase traces stay
  // attributable).
  if (world_.owner_count() > 1 && rng_.chance(0.45)) {
    const int other = (who + 1) % world_.owner_count();
    world_.move_person(world_.owner(other), random_away_location());
  }

  world_.run_for(sim::from_seconds(rng_.uniform(1.0, 3.0)));
  issue_and_judge(/*malicious=*/false, world_.owner(who).name());

  // Usually the owner wanders off again afterwards.
  if (rng_.chance(0.6)) {
    bool left = false;
    world_.move_person(world_.owner(who), random_away_location(),
                       [&left] { left = true; });
    world_.run_until([&left] { return left; }, sim::minutes(4));
  }
}

void ExperimentDriver::attack_episode() {
  // The paper's attack policy: the guest strikes only when no owner is in
  // the speaker's room. The guest first waits for anyone mid-walk to settle
  // (striking while an owner strolls through the room would be suicidal);
  // owners already elsewhere (including asleep upstairs) stay put; the rest
  // move away one at a time (so each staircase trace is cleanly attributable
  // to one person).
  for (int i = 0; i < world_.owner_count(); ++i) {
    home::Person& owner = world_.owner(i);
    world_.run_until([&owner] { return !owner.moving(); }, sim::minutes(4));
    if (!world_.in_legitimate_area(owner.position())) continue;
    bool away = false;
    world_.move_person(owner, random_away_location(),
                       [&away] { away = true; });
    world_.run_until([&away] { return away; }, sim::minutes(4));
  }
  const radio::Vec3 spot = world_.random_legit_spot(spots_rng_);
  bool in_position = false;
  world_.move_person(world_.attacker(), spot,
                     [&in_position] { in_position = true; });
  world_.run_until([&in_position] { return in_position; }, sim::minutes(4));

  world_.run_for(sim::from_seconds(rng_.uniform(1.0, 3.0)));
  issue_and_judge(/*malicious=*/true, "attacker");

  bool gone = false;
  world_.move_person(world_.attacker(),
                     radio::Vec3{-4, -4, world_.testbed().plan().device_height(0)},
                     [&gone] { gone = true; });
  world_.run_until([&gone] { return gone; }, sim::minutes(4));
}

void ExperimentDriver::issue_and_judge(bool malicious,
                                       const std::string& issuer) {
  const std::uint64_t id = next_cmd_id_++;
  const speaker::CommandSpec cmd = corpus_.sample(commands_rng_, id);

  CommandOutcome out;
  out.id = id;
  out.malicious = malicious;
  out.issuer = issuer;
  out.owner_whereabouts = owner_rooms_string();
  out.when = world_.sim().now();

  world_.hear_command(cmd);
  world_.run_for(cfg_.settle);
  out.executed = world_.command_executed(id);

  if (malicious) {
    ++malicious_issued_;
  } else {
    ++legit_issued_;
  }
  outcomes_.push_back(std::move(out));
}

analysis::ConfusionMatrix ExperimentDriver::confusion() const {
  analysis::ConfusionMatrix m;
  for (const auto& o : outcomes_) {
    if (o.malicious) {
      if (o.executed) {
        ++m.fn;  // attack succeeded
      } else {
        ++m.tp;  // attack blocked
      }
    } else {
      if (o.executed) {
        ++m.tn;  // owner served
      } else {
        ++m.fp;  // owner blocked
      }
    }
  }
  return m;
}

}  // namespace vg::workload
