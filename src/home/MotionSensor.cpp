#include "home/MotionSensor.h"

namespace vg::home {

MotionSensor::MotionSensor(sim::Simulation& sim, radio::Rect region,
                           Options opts)
    : sim_(sim), region_(region), opts_(opts) {}

MotionSensor::~MotionSensor() {
  for (std::size_t i = 0; i < people_.size(); ++i) {
    people_[i]->remove_move_hook(hooks_[i]);
  }
  if (awake_) sim_.cancel(next_poll_);
}

void MotionSensor::watch(Person& p) {
  people_.push_back(&p);
  inside_.push_back(false);
  hooks_.push_back(p.add_move_hook([this] { wake(); }));
}

void MotionSensor::start() {
  if (started_) return;
  started_ = true;
  origin_ = sim_.now();
  poll();
}

void MotionSensor::wake() {
  if (!started_ || awake_) return;
  const sim::Duration period = opts_.poll_interval;
  const std::int64_t ticks = (sim_.now() - origin_).ns() / period.ns() + 1;
  awake_ = true;
  next_poll_ = sim_.at(origin_ + period * ticks, [this] { poll(); });
}

void MotionSensor::poll() {
  bool fire = false;
  bool anyone_moving = false;
  for (std::size_t i = 0; i < people_.size(); ++i) {
    const bool contains = covers(people_[i]->position());
    const bool moving = people_[i]->moving();
    const bool entered = contains && !inside_[i] && moving;
    inside_[i] = contains;
    fire = fire || entered;
    anyone_moving = anyone_moving || moving;
  }
  if (fire && sim_.now() >= quiet_until_) {
    ++activations_;
    quiet_until_ = sim_.now() + opts_.cooldown;
    for (std::size_t s = 0; s < subscribers_.size(); ++s) {
      sim_.after(opts_.trigger_latency, [this, s] { subscribers_[s](); });
    }
  }
  awake_ = anyone_moving;
  if (awake_) next_poll_ = sim_.after(opts_.poll_interval, [this] { poll(); });
}

}  // namespace vg::home
