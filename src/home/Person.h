#pragma once

#include <functional>
#include <string>
#include <vector>

#include "radio/Geometry.h"
#include "simcore/Simulation.h"

/// \file Person.h
/// A person moving through a testbed. Position is continuous in time: during
/// a walk the position interpolates along the current segment, so an RSSI
/// sample taken mid-walk (the floor tracker samples every 0.2 s) sees smooth
/// motion, exactly like the paper's stair traces.

namespace vg::home {

class Person {
 public:
  Person(sim::Simulation& sim, std::string name, radio::Vec3 start)
      : sim_(sim), name_(std::move(name)), from_(start), to_(start) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Current position, interpolated along the active walk segment.
  [[nodiscard]] radio::Vec3 position() const;

  [[nodiscard]] bool moving() const;

  /// Instantly relocates (scenario setup only).
  void teleport(radio::Vec3 p);

  /// Walks the polyline \p points at \p speed_mps, then invokes \p done.
  /// Cancels any walk in progress.
  void follow_path(std::vector<radio::Vec3> points, double speed_mps,
                   std::function<void()> done = nullptr);

  /// Straight-line walk to one target.
  void walk_to(radio::Vec3 target, double speed_mps,
               std::function<void()> done = nullptr);

  /// Registers \p hook to run at the start of every follow_path() (and so
  /// walk_to()) and teleport() call: once per call, not per segment. Returns
  /// a handle for remove_move_hook().
  std::size_t add_move_hook(std::function<void()> hook);
  void remove_move_hook(std::size_t handle) { move_hooks_[handle] = nullptr; }

  /// Typical indoor walking speed (§V-B2 implies ~1 m/s up the stairs).
  static constexpr double kDefaultSpeed = 1.1;

 private:
  void advance_segment();
  void notify_move();

  sim::Simulation& sim_;
  std::string name_;
  radio::Vec3 from_;
  radio::Vec3 to_;
  sim::TimePoint seg_start_{};
  sim::TimePoint seg_end_{};
  std::vector<radio::Vec3> path_;
  std::size_t path_index_{0};
  double speed_{kDefaultSpeed};
  std::function<void()> done_;
  std::uint64_t walk_gen_{0};
  std::vector<std::function<void()>> move_hooks_;  // removed hooks are empty
};

}  // namespace vg::home
