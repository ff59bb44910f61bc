#include "faults/FaultInjector.h"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace vg::faults {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument{"FaultInjector: " + what};
}

}  // namespace

net::Link& FaultInjector::link_for(LinkFault::Where where) const {
  net::Link* link =
      where == LinkFault::Where::kLan ? targets_.lan : targets_.wan;
  if (link == nullptr) fail("plan targets a link that is not wired");
  return *link;
}

void FaultInjector::note(FaultEvent::Kind kind, std::uint64_t param) {
  FaultEvent ev;
  ev.kind = kind;
  ev.param = param;
  ev.when = sim_.now();
  log_.push_back(ev);
  ++injected_;
  if (observer_) observer_(ev);
}

void FaultInjector::arm(const FaultPlan& plan) {
  // The plan's own rules are the ones the `.scn` loader applies; arm adds
  // only that every target the plan acts on is wired.
  if (auto v = validate(plan, targets_.devices.size())) {
    fail(v->describe(plan.name));
  }
  for (const LinkFault& f : plan.links) link_for(f.where);
  if ((!plan.cloud.empty() || !plan.brownouts.empty()) &&
      targets_.cloud == nullptr) {
    fail("plan '" + plan.name + "' needs a cloud target");
  }
  if (!plan.fcm.empty() && targets_.fcm == nullptr) {
    fail("plan '" + plan.name + "' needs an fcm target");
  }
  for (const DeviceFault& f : plan.devices) {
    if (targets_.devices[f.device] == nullptr) {
      fail("plan '" + plan.name + "' targets missing device " +
           std::to_string(f.device));
    }
  }
  if (!plan.restarts.empty() && targets_.guard == nullptr) {
    fail("plan '" + plan.name + "' needs a guard target");
  }

  const sim::TimePoint t0 = sim_.now();

  for (const LinkFault& f : plan.links) {
    net::Link& link = link_for(f.where);
    const sim::TimePoint start = t0 + f.start;
    const sim::TimePoint end = start + f.duration;
    const auto param = static_cast<std::uint64_t>(f.where);
    auto on = FaultEvent::Kind::kFlapStart;
    auto off = FaultEvent::Kind::kFlapEnd;
    switch (f.kind) {
      case LinkFault::Kind::kFlap:
        link.add_flap(start, end);
        break;
      case LinkFault::Kind::kBurst:
        link.add_burst_loss(start, end, f.ge);
        on = FaultEvent::Kind::kBurstStart;
        off = FaultEvent::Kind::kBurstEnd;
        break;
      case LinkFault::Kind::kLatencySpike:
        link.add_latency_spike(start, end, f.extra_latency);
        on = FaultEvent::Kind::kLatencyStart;
        off = FaultEvent::Kind::kLatencyEnd;
        break;
    }
    sim_.at(start, [this, on, param] { note(on, param); });
    sim_.at(end, [this, off, param] { note(off, param); });
  }

  for (const CloudOutage& f : plan.cloud) {
    const auto param = static_cast<std::uint64_t>(f.rst_existing ? 1 : 0);
    sim_.at(t0 + f.start, [this, rst = f.rst_existing, param] {
      targets_.cloud->set_avs_available(false, rst);
      note(FaultEvent::Kind::kCloudDown, param);
    });
    sim_.at(t0 + f.start + f.duration, [this] {
      targets_.cloud->set_avs_available(true);
      note(FaultEvent::Kind::kCloudUp, 0);
    });
  }

  for (const CloudBrownout& f : plan.brownouts) {
    const auto param =
        static_cast<std::uint64_t>(f.extra_latency.ns() / 1'000'000);
    sim_.at(t0 + f.start, [this, extra = f.extra_latency, param] {
      targets_.cloud->set_avs_extra_delay(extra);
      note(FaultEvent::Kind::kBrownoutStart, param);
    });
    sim_.at(t0 + f.start + f.duration, [this] {
      targets_.cloud->set_avs_extra_delay(sim::Duration{});
      note(FaultEvent::Kind::kBrownoutEnd, 0);
    });
  }

  for (const FcmFault& f : plan.fcm) {
    const sim::TimePoint start = t0 + f.start;
    const sim::TimePoint end = start + f.duration;
    targets_.fcm->add_fault_window(start, end, f.extra_delay, f.drop_prob);
    const auto param = static_cast<std::uint64_t>(f.drop_prob * 100.0);
    sim_.at(start,
            [this, param] { note(FaultEvent::Kind::kFcmDegraded, param); });
    sim_.at(end, [this] { note(FaultEvent::Kind::kFcmNormal, 0); });
  }

  for (const DeviceFault& f : plan.devices) {
    home::MobileDevice* dev = targets_.devices[f.device];
    const auto param = static_cast<std::uint64_t>(f.device);
    sim_.at(t0 + f.start, [this, dev, param] {
      dev->set_responsive(false);
      note(FaultEvent::Kind::kDeviceDown, param);
    });
    if (f.duration.ns() > 0) {
      sim_.at(t0 + f.start + f.duration, [this, dev, param] {
        dev->set_responsive(true);
        note(FaultEvent::Kind::kDeviceUp, param);
      });
    }
  }

  for (const GuardRestart& f : plan.restarts) {
    sim_.at(t0 + f.at, [this] {
      targets_.guard->restart();
      note(FaultEvent::Kind::kGuardRestart, 0);
    });
  }
}

}  // namespace vg::faults
