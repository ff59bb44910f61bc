/// Unit tests for the home substrate: people, devices, PIR sensor, FCM.

#include <gtest/gtest.h>

#include "home/Fcm.h"
#include "home/MobileDevice.h"
#include "home/MotionSensor.h"
#include "home/Person.h"
#include "home/Testbed.h"

namespace vg::home {
namespace {

// ---------------------------------------------------------------------------
// Person
// ---------------------------------------------------------------------------

TEST(Person, PositionInterpolatesDuringWalk) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 1.1}};
  p.walk_to({10, 0, 1.1}, 2.0);  // 5 seconds of walking
  EXPECT_TRUE(p.moving());
  sim.run_until(sim::TimePoint{} + sim::from_seconds(2.5));
  const auto mid = p.position();
  EXPECT_NEAR(mid.x, 5.0, 1e-9);
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_NEAR(p.position().x, 10.0, 1e-9);
  EXPECT_FALSE(p.moving());
}

TEST(Person, FollowPathVisitsWaypointsAndCallsDone) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  bool done = false;
  p.follow_path({{3, 0, 0}, {3, 4, 0}}, 1.0, [&] { done = true; });
  sim.run_all();
  EXPECT_TRUE(done);
  EXPECT_NEAR(p.position().y, 4.0, 1e-9);
  // Total walk took distance/speed = 7 s.
  EXPECT_NEAR(sim.now().seconds(), 7.0, 1e-6);
}

TEST(Person, NewWalkCancelsPrevious) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  bool first_done = false, second_done = false;
  p.walk_to({100, 0, 0}, 1.0, [&] { first_done = true; });
  sim.run_until(sim::TimePoint{} + sim::seconds(2));
  p.walk_to({0, 5, 0}, 1.0, [&] { second_done = true; });
  sim.run_all();
  EXPECT_FALSE(first_done);  // superseded
  EXPECT_TRUE(second_done);
  EXPECT_NEAR(p.position().y, 5.0, 1e-9);
}

TEST(Person, TeleportStopsMovement) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  bool done = false;
  p.walk_to({10, 0, 0}, 1.0, [&] { done = true; });
  sim.run_until(sim::TimePoint{} + sim::seconds(1));
  p.teleport({7, 7, 7});
  sim.run_all();
  EXPECT_FALSE(done);
  EXPECT_FALSE(p.moving());
  EXPECT_NEAR(p.position().z, 7.0, 1e-9);
}

TEST(Person, MoveHookFiresOncePerWalkOrTeleport) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  int moves = 0;
  const std::size_t hook = p.add_move_hook([&] { ++moves; });
  p.follow_path({{3, 0, 0}, {3, 4, 0}, {0, 4, 0}}, 1.0);  // three segments
  sim.run_all();
  EXPECT_EQ(moves, 1);
  p.teleport({1, 1, 0});
  p.walk_to({2, 2, 0}, 1.0);
  EXPECT_EQ(moves, 3);
  p.remove_move_hook(hook);
  p.walk_to({0, 0, 0}, 1.0);
  sim.run_all();
  EXPECT_EQ(moves, 3);
}

TEST(Person, WalkFromCurrentMidpointPosition) {
  sim::Simulation sim{1};
  Person p{sim, "p", {0, 0, 0}};
  p.walk_to({10, 0, 0}, 1.0);
  sim.run_until(sim::TimePoint{} + sim::seconds(4));
  // Redirect mid-walk: new segment starts at (4,0,0).
  p.walk_to({4, 3, 0}, 1.0);
  sim.run_until(sim.now() + sim::seconds(3));
  EXPECT_NEAR(p.position().x, 4.0, 1e-9);
  EXPECT_NEAR(p.position().y, 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// MotionSensor
// ---------------------------------------------------------------------------

struct SensorFixture : ::testing::Test {
  sim::Simulation sim{3};
  Person p{sim, "p", {-2, 1, 1.5}};
  MotionSensor::Options opts;
  radio::Rect region{0, 0, 2, 2};

  int events = 0;

  void arm(MotionSensor& s) {
    s.watch(p);
    s.subscribe([this] { ++events; });
    s.start();
  }
};

TEST_F(SensorFixture, FiresOncePerCrossing) {
  MotionSensor s{sim, region, opts};
  arm(s);
  p.walk_to({4, 1, 1.5}, 1.0);  // crosses the region once
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_EQ(events, 1);
  EXPECT_EQ(s.activations(), 1u);
}

TEST_F(SensorFixture, StationaryPersonInsideDoesNotFire) {
  p.teleport({1, 1, 1.5});
  MotionSensor s{sim, region, opts};
  arm(s);
  sim.run_until(sim::TimePoint{} + sim::seconds(5));
  EXPECT_EQ(events, 0);
}

TEST_F(SensorFixture, SecondCrossingAfterCooldownFires) {
  MotionSensor s{sim, region, opts};
  arm(s);
  p.walk_to({4, 1, 1.5}, 1.0, [this] {
    sim.after(sim::seconds(5), [this] { p.walk_to({-2, 1, 1.5}, 1.0); });
  });
  sim.run_until(sim::TimePoint{} + sim::seconds(30));
  EXPECT_EQ(events, 2);
}

TEST_F(SensorFixture, ZRangeFiltersOtherFloors) {
  MotionSensor::Options zopts;
  zopts.z_min = 1.0;
  zopts.z_max = 3.0;
  MotionSensor s{sim, region, zopts};
  arm(s);
  // Person "walks across the stairwell footprint" on the upper floor.
  p.teleport({-2, 1, 3.9});
  p.walk_to({4, 1, 3.9}, 1.0);
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_EQ(events, 0);
  // Now through the covered band.
  p.teleport({-2, 1, 2.0});
  p.walk_to({4, 1, 2.0}, 1.0);
  sim.run_until(sim.now() + sim::seconds(10));
  EXPECT_EQ(events, 1);
}

TEST_F(SensorFixture, TriggerLatencyDelaysEvent) {
  MotionSensor s{sim, region, opts};
  s.watch(p);
  sim::TimePoint fired;
  s.subscribe([&] { fired = sim.now(); });
  s.start();
  p.walk_to({4, 1, 1.5}, 2.0);  // enters region at t=1s
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  EXPECT_GE((fired - sim::TimePoint{}).seconds(), 1.0 + 0.35 - 0.05);
}

TEST_F(SensorFixture, IdleSensorCostsNoEvents) {
  // Nobody walks, so the sensor polls once at start() and then sleeps.
  MotionSensor s{sim, region, opts};
  arm(s);
  sim.run_until(sim::TimePoint{} + sim::days(1));
  EXPECT_LE(sim.executed_events(), 2u);
  EXPECT_EQ(events, 0);
}

TEST_F(SensorFixture, WakeLandsOnStartAnchoredGrid) {
  MotionSensor s{sim, region, opts};
  s.watch(p);
  sim::TimePoint fired;
  s.subscribe([&] { fired = sim.now(); });
  s.start();  // grid: 0, 0.2, 0.4, ...
  sim.run_until(sim::TimePoint{} + sim::milliseconds(50));
  p.walk_to({4, 1, 1.5}, 4.0);  // x(t) = -2 + 4 (t - 0.05)
  // The walk's own segment end lies past 0.2 s, so the next event is the
  // sensor's first poll.
  EXPECT_EQ(sim.next_event_at(), sim::TimePoint{} + sim::milliseconds(200));
  sim.run_until(sim::TimePoint{} + sim::seconds(5));
  // Polls at 0.2 (x=-1.4) and 0.4 (x=-0.6) see the walker outside; 0.6
  // (x=0.2) fires. A grid anchored at the walk (0.25, 0.45, 0.65) would fire
  // at 0.65 instead.
  EXPECT_EQ(s.activations(), 1u);
  EXPECT_EQ(fired, sim::TimePoint{} + sim::milliseconds(600 + 350));
  // Asleep again. A walk starting exactly on a tick, after that tick's events
  // ran, is first polled on the next tick: an all-day sensor polled this one
  // before the walk began.
  sim.run_until(sim::TimePoint{} + sim::seconds(7));
  p.walk_to({-2, 1, 1.5}, 1.0);
  EXPECT_EQ(sim.next_event_at(), sim::TimePoint{} + sim::milliseconds(7200));
}

TEST_F(SensorFixture, TeleportWhileAsleepDoesNotFireLaterWalk) {
  MotionSensor s{sim, region, opts};
  arm(s);
  sim.run_until(sim::TimePoint{} + sim::seconds(5));
  // Off the grid: the wake poll at 5.2 s records the person inside.
  sim.run_until(sim::TimePoint{} + sim::milliseconds(5050));
  p.teleport({1, 1, 1.5});
  sim.run_until(sim::TimePoint{} + sim::seconds(10));
  p.walk_to({1.5, 1.5, 1.5}, 0.5);  // moves, but never enters
  sim.run_until(sim::TimePoint{} + sim::seconds(20));
  EXPECT_EQ(events, 0);
  EXPECT_EQ(s.activations(), 0u);
}

TEST_F(SensorFixture, DestroyedSensorIsNeverCalledBack) {
  {
    // Asleep when destroyed: only the move hook could reach it.
    MotionSensor s{sim, region, opts};
    arm(s);
    p.walk_to({4, 1, 1.5}, 1.0);
    sim.run_until(sim::TimePoint{} + sim::seconds(10));
    EXPECT_EQ(s.activations(), 1u);
  }
  {
    // Awake when destroyed: its pending poll must be cancelled too.
    MotionSensor s{sim, region, opts};
    arm(s);
    p.walk_to({-2, 1, 1.5}, 1.0);
    sim.run_until(sim.now() + sim::milliseconds(500));
  }
  p.walk_to({4, 1, 1.5}, 1.0);
  p.teleport({1, 1, 1.5});
  p.walk_to({-2, 1, 1.5}, 1.0);
  sim.run_all();
  EXPECT_EQ(events, 1);
}

// ---------------------------------------------------------------------------
// MobileDevice
// ---------------------------------------------------------------------------

TEST(MobileDevice, PutDownOverridesCarrier) {
  sim::Simulation sim{5};
  Testbed tb = Testbed::two_floor_house();
  Person owner{sim, "o", tb.location(1).pos};
  MobileDevice phone{sim, tb.plan(), radio::PathLossParams{}, "phone",
                     [&] { return owner.position(); }};
  EXPECT_FALSE(phone.is_placed());
  phone.put_down(tb.location(33).pos);
  owner.teleport(tb.location(5).pos);
  EXPECT_TRUE(phone.is_placed());
  EXPECT_NEAR(phone.position().x, tb.location(33).pos.x, 1e-9);
  phone.pick_up();
  EXPECT_NEAR(phone.position().x, tb.location(5).pos.x, 1e-9);
}

TEST(MobileDevice, MeasureRequestIncludesScanAndUplinkLatency) {
  sim::Simulation sim{5};
  Testbed tb = Testbed::two_floor_house();
  Person owner{sim, "o", tb.location(1).pos};
  MobileDevice phone{sim, tb.plan(), radio::PathLossParams{}, "phone",
                     [&] { return owner.position(); }};
  radio::BluetoothBeacon beacon{"spk", tb.speaker_position(1)};
  sim::TimePoint reported;
  double rssi = 0;
  phone.handle_measure_request(beacon, [&](double r) {
    rssi = r;
    reported = sim.now();
  });
  sim.run_all();
  const double t = (reported - sim::TimePoint{}).seconds();
  EXPECT_GE(t, 0.2 + 0.04);  // scan min + uplink min
  EXPECT_LE(t, 0.9 + 0.18);
  EXPECT_LT(rssi, 5.0);
  EXPECT_GT(rssi, -20.0);
}

TEST(MobileDevice, TokenDerivedFromName) {
  sim::Simulation sim{5};
  Testbed tb = Testbed::apartment();
  Person owner{sim, "o", tb.location(1).pos};
  MobileDevice phone{sim, tb.plan(), radio::PathLossParams{}, "pixel-5",
                     [&] { return owner.position(); }};
  EXPECT_EQ(phone.fcm_token(), "fcm:pixel-5");
}

// ---------------------------------------------------------------------------
// FCM
// ---------------------------------------------------------------------------

TEST(Fcm, DeliversPayloadToRegisteredDevice) {
  sim::Simulation sim{7};
  FcmService fcm{sim};
  std::string got;
  fcm.register_device("tok", [&](const std::string& p) { got = p; });
  fcm.push("tok", "measure:42");
  sim.run_all();
  EXPECT_EQ(got, "measure:42");
}

TEST(Fcm, ReRegistrationReplacesHandler) {
  sim::Simulation sim{7};
  FcmService fcm{sim};
  int first = 0, second = 0;
  fcm.register_device("tok", [&](const std::string&) { ++first; });
  fcm.register_device("tok", [&](const std::string&) { ++second; });
  fcm.push("tok", "x");
  sim.run_all();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(Fcm, InFlightPushUsesHandlerAtSendTime) {
  sim::Simulation sim{7};
  FcmService fcm{sim};
  int first = 0, second = 0;
  fcm.register_device("tok", [&](const std::string&) { ++first; });
  fcm.push("tok", "x");
  // Re-register while the push is in flight: the in-flight push was already
  // addressed to the old app instance.
  fcm.register_device("tok", [&](const std::string&) { ++second; });
  sim.run_all();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

}  // namespace
}  // namespace vg::home
