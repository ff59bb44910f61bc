#pragma once

#include <functional>
#include <vector>

#include "home/Person.h"
#include "radio/Geometry.h"
#include "simcore/Simulation.h"

/// \file MotionSensor.h
/// A PIR motion sensor (the paper used a Philips Hue near the stairs). It
/// fires when any watched person is inside its coverage region *and moving*,
/// then stays quiet for a cooldown. The floor tracker records an RSSI trace
/// on each activation (§V-B2).
///
/// The sensor samples the grid start() + k * poll_interval, but only while
/// someone it watches is walking. A poll that finds nobody moving schedules
/// no next tick; a watched person's next walk or teleport (its move hook)
/// schedules one poll at the next grid tick strictly after now(). Between
/// such a poll and the next move every position is constant and moving() is
/// false, so a skipped tick could neither fire nor change what the sensor
/// remembers: activation times match a sensor that polls the grid all day
/// (tests/testutil/PollingMotionSensor.h).
///
/// The one ordering edge is FIFO order among same-time events. A wake poll
/// is queued later than an all-day poll of its tick would be, and a tick
/// skipped while asleep is not polled at all. The two differ only when an
/// event at exactly a grid tick moves a watched person ahead of the all-day
/// poll of that tick. For example, a teleport on a tick while the sensor
/// sleeps is seen one tick late, so a walk that starts before then is judged
/// against the pre-teleport position.

namespace vg::home {

class MotionSensor {
 public:
  struct Options {
    sim::Duration poll_interval = sim::milliseconds(200);
    /// Minimum spacing between reported events (burst dedup). The sensor is
    /// edge-triggered: it reports when a moving person *enters* its coverage,
    /// like a PIR arming on a new heat source, so one staircase crossing
    /// yields exactly one event.
    sim::Duration cooldown = sim::seconds(2);
    sim::Duration trigger_latency = sim::milliseconds(350);  // Hue -> bridge -> LAN
    /// Height band covered by the PIR. A staircase sensor sees people *on*
    /// the stairs, not someone on the floor above walking across the
    /// stairwell's footprint.
    double z_min = -1e9;
    double z_max = 1e9;
  };

  MotionSensor(sim::Simulation& sim, radio::Rect region)
      : MotionSensor(sim, region, Options{}) {}
  MotionSensor(sim::Simulation& sim, radio::Rect region, Options opts);
  /// Detaches from every watched person and cancels the pending poll.
  /// Activations still inside their trigger latency must not outlive it.
  ~MotionSensor();
  MotionSensor(const MotionSensor&) = delete;
  MotionSensor& operator=(const MotionSensor&) = delete;

  /// Watches \p p, which must outlive the sensor.
  void watch(Person& p);

  /// Adds an activation subscriber (fires after the trigger latency).
  void subscribe(std::function<void()> cb) {
    subscribers_.push_back(std::move(cb));
  }

  [[nodiscard]] std::uint64_t activations() const { return activations_; }
  [[nodiscard]] radio::Rect region() const { return region_; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Anchors the poll grid at now() and polls. From then on the sensor polls
  /// every grid tick while a watched person is moving and sleeps otherwise.
  /// Safe to call once.
  void start();

  /// True if \p p is inside the sensor's 3-D coverage.
  [[nodiscard]] bool covers(radio::Vec3 p) const {
    return region_.contains(p.xy()) && p.z >= opts_.z_min && p.z <= opts_.z_max;
  }

 private:
  void poll();
  /// Move hook: a sleeping sensor schedules a poll at the next grid tick.
  void wake();

  sim::Simulation& sim_;
  radio::Rect region_;
  Options opts_;
  std::vector<Person*> people_;
  std::vector<bool> inside_;  // parallel to people_: was inside last poll
  std::vector<std::size_t> hooks_;  // parallel to people_: move-hook handles
  std::vector<std::function<void()>> subscribers_;
  sim::TimePoint quiet_until_{};
  std::uint64_t activations_{0};
  sim::TimePoint origin_{};  // grid anchor, set by start()
  sim::EventId next_poll_{};
  bool started_{false};
  bool awake_{false};  // a poll is pending
};

}  // namespace vg::home
