/// Differential lock for the event-driven stair sensor: home::MotionSensor
/// sleeps while nobody it watches is walking, and must report exactly the
/// activation times of testutil::PollingMotionSensor, which polls the same
/// grid all day. Both are attached to the same people in the same Simulation.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "home/MotionSensor.h"
#include "home/Person.h"
#include "simcore/Rng.h"
#include "simcore/Simulation.h"
#include "testutil/PollingMotionSensor.h"
#include "workload/Experiment.h"
#include "workload/TrialRunner.h"

namespace vg {
namespace {

using home::MotionSensor;
using home::Person;
using testutil::PollingMotionSensor;

/// Activation timestamps of the production sensor and the oracle.
struct Recorder {
  std::vector<sim::TimePoint> sensor;
  std::vector<sim::TimePoint> oracle;
};

void record(sim::Simulation& sim, MotionSensor& s, PollingMotionSensor& o,
            Recorder& rec) {
  s.subscribe([&sim, &rec] { rec.sensor.push_back(sim.now()); });
  o.subscribe([&sim, &rec] { rec.oracle.push_back(sim.now()); });
}

// (a) The four house trial configurations of the Tables II protocol, one
// simulated day each: calibration walks, stair journeys and the command
// episodes, with the oracle watching the same people as the world's sensor.
TEST(MotionOracle, HouseTrialsMatchAllDayPolling) {
  const auto specs =
      workload::table_matrix(workload::WorldConfig::TestbedKind::kHouse,
                             /*owners=*/2, /*watch=*/false, /*seed0=*/200,
                             sim::days(1));
  ASSERT_EQ(specs.size(), 4u);
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.label);
    workload::SmartHomeWorld world{spec.world};
    MotionSensor* sensor = world.motion_sensor();
    ASSERT_NE(sensor, nullptr);
    // The world started its sensor at t = 0; the oracle shares that origin.
    ASSERT_EQ(world.sim().now(), sim::TimePoint{});
    PollingMotionSensor oracle{world.sim(), sensor->region(),
                               sensor->options()};
    for (int i = 0; i < world.owner_count(); ++i) oracle.watch(world.owner(i));
    oracle.watch(world.attacker());
    Recorder rec;
    record(world.sim(), *sensor, oracle, rec);
    oracle.start();

    world.calibrate();
    workload::ExperimentDriver driver{world, spec.experiment};
    driver.run();

    EXPECT_GT(rec.oracle.size(), 60u);  // 30 training stair journeys per owner
    EXPECT_EQ(sensor->activations(), oracle.activations());
    EXPECT_EQ(rec.sensor, rec.oracle);
  }
}

// A walk whose only segment ends exactly on the tick the sensor wakes for.
// The all-day poll of that tick was queued before the segment end, so it sees
// the walker stopped; the wake poll must be queued before it too, which is
// why Person fires its move hook before scheduling the first segment.
TEST(MotionOracle, WalkEndingOnTheWakeTick) {
  sim::Simulation sim{7};
  Person p{sim, "p", {-0.25, 1, 1.5}};
  const radio::Rect region{0, 0, 2, 2};
  MotionSensor sensor{sim, region, MotionSensor::Options{}};
  PollingMotionSensor oracle{sim, region, MotionSensor::Options{}};
  sensor.watch(p);
  oracle.watch(p);
  Recorder rec;
  record(sim, sensor, oracle, rec);
  sensor.start();
  oracle.start();
  sim.run_until(sim::TimePoint{} + sim::milliseconds(75));
  // 0.5 m at 4 m/s takes exactly 125 ms: arrives inside at the 200 ms tick,
  // then walks on inside the region.
  p.walk_to({0.25, 1, 1.5}, 4.0, [&p] { p.walk_to({1, 1, 1.5}, 1.0); });
  sim.run_until(sim::TimePoint{} + sim::seconds(5));
  EXPECT_EQ(sensor.activations(), oracle.activations());
  EXPECT_EQ(rec.sensor, rec.oracle);
}

// (b) Seeded random scripts in a bare Simulation. Every action is scheduled
// before the run: walks along random waypoints (some fast enough to cross
// the region between two polls), walks that start exactly on a grid tick,
// walks chained from a previous walk's completion, and teleports at random
// nanosecond instants.
struct Script {
  sim::Simulation sim;
  sim::Rng& rng;
  std::vector<std::unique_ptr<Person>> people;
  radio::Rect region;

  explicit Script(std::uint64_t seed)
      : sim(seed), rng(sim.rng("oracle.script")) {
    const double x0 = rng.uniform(0.0, 6.0);
    const double y0 = rng.uniform(0.0, 6.0);
    region = radio::Rect{x0, y0, x0 + rng.uniform(0.5, 4.0),
                         y0 + rng.uniform(0.5, 4.0)};
  }

  radio::Vec3 point() {
    return radio::Vec3{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0),
                       rng.uniform(0.0, 4.0)};
  }
  double speed() {
    // One walk in four is fast enough to cross the region within a poll.
    return rng.uniform_int(0, 3) == 0 ? rng.uniform(15.0, 60.0)
                                      : rng.uniform(0.3, 2.5);
  }
  std::vector<radio::Vec3> path() {
    std::vector<radio::Vec3> pts;
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < n; ++k) {
      // Half the waypoints sit inside the region (at a random height).
      if (rng.uniform_int(0, 1) == 0) {
        pts.push_back(radio::Vec3{rng.uniform(region.x0, region.x1),
                                  rng.uniform(region.y0, region.y1),
                                  rng.uniform(0.0, 4.0)});
      } else {
        pts.push_back(point());
      }
    }
    return pts;
  }
};

TEST(MotionOracle, RandomScriptsMatchAllDayPolling) {
  constexpr std::uint64_t kScripts = 1200;
  std::uint64_t total_activations = 0;
  for (std::uint64_t seed = 1; seed <= kScripts; ++seed) {
    SCOPED_TRACE(seed);
    Script sc{seed};
    sim::Rng& rng = sc.rng;

    MotionSensor::Options opts;
    opts.cooldown = sim::milliseconds(rng.uniform_int(0, 3000));
    opts.trigger_latency = sim::milliseconds(rng.uniform_int(0, 500));
    if (rng.uniform_int(0, 1) == 0) {
      opts.z_min = rng.uniform(0.0, 2.0);
      opts.z_max = opts.z_min + rng.uniform(0.5, 2.0);
    }
    const int n_people = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n_people; ++i) {
      sc.people.push_back(std::make_unique<Person>(
          sc.sim, "p" + std::to_string(i), sc.point()));
    }

    MotionSensor sensor{sc.sim, sc.region, opts};
    PollingMotionSensor oracle{sc.sim, sc.region, opts};
    for (auto& p : sc.people) {
      sensor.watch(*p);
      oracle.watch(*p);
    }
    Recorder rec;
    record(sc.sim, sensor, oracle, rec);

    // Both sensors start in one event at a random instant (the grid origin).
    const sim::TimePoint origin =
        sim::TimePoint{} + sim::nanoseconds(rng.uniform_int(0, 2'000'000'000));
    sc.sim.at(origin, [&] {
      sensor.start();
      oracle.start();
    });

    const sim::Duration horizon = sim::seconds(90);
    const int n_actions = static_cast<int>(rng.uniform_int(3, 14));
    for (int a = 0; a < n_actions; ++a) {
      Person& who = *sc.people[rng.index(sc.people.size())];
      const int kind = static_cast<int>(rng.uniform_int(0, 3));
      sim::TimePoint when =
          sim::TimePoint{} + sim::nanoseconds(rng.uniform_int(0, horizon.ns()));
      if (kind == 1) {
        // Exactly on a grid tick after the origin.
        when = origin + opts.poll_interval * rng.uniform_int(1, 400);
      }
      if (kind == 3) {
        const radio::Vec3 to = sc.point();
        sc.sim.at(when, [&who, to] { who.teleport(to); });
        continue;
      }
      auto pts = sc.path();
      const double v = sc.speed();
      if (kind == 2) {
        // A walk, then another after a random pause (possibly none).
        auto next = sc.path();
        const double v2 = sc.speed();
        const bool waits = rng.uniform_int(0, 1) == 1;
        const sim::Duration pause =
            sim::milliseconds(waits ? rng.uniform_int(0, 5000) : 0);
        sc.sim.at(when, [&sc, &who, pts, v, next, v2, pause] {
          who.follow_path(pts, v, [&sc, &who, next, v2, pause] {
            sc.sim.after(pause, [&who, next, v2] { who.follow_path(next, v2); });
          });
        });
        continue;
      }
      sc.sim.at(when, [&who, pts, v] { who.follow_path(pts, v); });
    }

    sc.sim.run_until(sim::TimePoint{} + horizon + sim::minutes(10));
    EXPECT_EQ(sensor.activations(), oracle.activations());
    ASSERT_EQ(rec.sensor, rec.oracle);
    total_activations += oracle.activations();
  }
  // The scripts must actually exercise the sensor.
  EXPECT_GT(total_activations, kScripts);
}

}  // namespace
}  // namespace vg
