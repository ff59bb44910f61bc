#include "home/Person.h"

#include <algorithm>

namespace vg::home {

radio::Vec3 Person::position() const {
  const sim::TimePoint now = sim_.now();
  if (now >= seg_end_ || seg_end_ == seg_start_) return to_;
  if (now <= seg_start_) return from_;
  const double t = static_cast<double>((now - seg_start_).ns()) /
                   static_cast<double>((seg_end_ - seg_start_).ns());
  return radio::lerp(from_, to_, t);
}

bool Person::moving() const {
  return sim_.now() < seg_end_ || path_index_ < path_.size();
}

void Person::teleport(radio::Vec3 p) {
  notify_move();
  ++walk_gen_;  // invalidate any in-flight walk continuation
  from_ = p;
  to_ = p;
  seg_start_ = seg_end_ = sim_.now();
  path_.clear();
  path_index_ = 0;
  done_ = nullptr;
}

void Person::walk_to(radio::Vec3 target, double speed_mps,
                     std::function<void()> done) {
  follow_path({target}, speed_mps, std::move(done));
}

void Person::follow_path(std::vector<radio::Vec3> points, double speed_mps,
                         std::function<void()> done) {
  notify_move();
  ++walk_gen_;
  const radio::Vec3 here = position();
  from_ = here;
  to_ = here;
  seg_start_ = seg_end_ = sim_.now();
  path_ = std::move(points);
  path_index_ = 0;
  speed_ = std::max(0.1, speed_mps);
  done_ = std::move(done);
  advance_segment();
}

std::size_t Person::add_move_hook(std::function<void()> hook) {
  move_hooks_.push_back(std::move(hook));
  return move_hooks_.size() - 1;
}

void Person::notify_move() {
  for (const auto& hook : move_hooks_) {
    if (hook) hook();
  }
}

void Person::advance_segment() {
  if (path_index_ >= path_.size()) {
    auto done = std::move(done_);
    done_ = nullptr;
    if (done) done();
    return;
  }
  from_ = position();
  to_ = path_[path_index_++];
  const double dist = radio::distance(from_, to_);
  const sim::Duration dur = sim::from_seconds(dist / speed_);
  seg_start_ = sim_.now();
  seg_end_ = seg_start_ + dur;
  const std::uint64_t gen = walk_gen_;
  sim_.at(seg_end_, [this, gen] {
    if (gen == walk_gen_) advance_segment();
  });
}

}  // namespace vg::home
