#pragma once

#include <functional>
#include <vector>

#include "home/MotionSensor.h"
#include "home/Person.h"
#include "radio/Geometry.h"
#include "simcore/Simulation.h"

/// \file PollingMotionSensor.h
/// The differential oracle for home::MotionSensor: the same PIR model, but
/// polled every poll_interval all day, whether or not anyone moves. The
/// production sensor sleeps while nobody it watches is walking; attached to
/// the same people in the same Simulation, both must report identical
/// activation times. Neither sensor mutates the people it watches, so the two
/// can share one world.

namespace vg::testutil {

class PollingMotionSensor {
 public:
  using Options = home::MotionSensor::Options;

  PollingMotionSensor(sim::Simulation& sim, radio::Rect region, Options opts)
      : sim_(sim), region_(region), opts_(opts) {}

  void watch(home::Person& p) {
    people_.push_back(&p);
    inside_.push_back(false);
  }

  void subscribe(std::function<void()> cb) {
    subscribers_.push_back(std::move(cb));
  }

  [[nodiscard]] std::uint64_t activations() const { return activations_; }

  /// Starts polling; the chain lives for the simulation's duration, so the
  /// oracle must outlive every run of the simulation.
  void start() {
    if (started_) return;
    started_ = true;
    poll();
  }

  [[nodiscard]] bool covers(radio::Vec3 p) const {
    return region_.contains(p.xy()) && p.z >= opts_.z_min && p.z <= opts_.z_max;
  }

 private:
  void poll() {
    bool fire = false;
    for (std::size_t i = 0; i < people_.size(); ++i) {
      const bool contains = covers(people_[i]->position());
      const bool entered = contains && !inside_[i] && people_[i]->moving();
      inside_[i] = contains;
      fire = fire || entered;
    }
    if (fire && sim_.now() >= quiet_until_) {
      ++activations_;
      quiet_until_ = sim_.now() + opts_.cooldown;
      for (const auto& cb : subscribers_) {
        sim_.after(opts_.trigger_latency, [cb] { cb(); });
      }
    }
    sim_.after(opts_.poll_interval, [this] { poll(); });
  }

  sim::Simulation& sim_;
  radio::Rect region_;
  Options opts_;
  std::vector<home::Person*> people_;
  std::vector<bool> inside_;  // parallel to people_: was inside last poll
  std::vector<std::function<void()>> subscribers_;
  sim::TimePoint quiet_until_{};
  std::uint64_t activations_{0};
  bool started_{false};
};

}  // namespace vg::testutil
