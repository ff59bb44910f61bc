/// \file PlanValidation.cpp
/// The one validator for faults::FaultPlan and fleet::FleetFaultPlan. The
/// injector, the fleet orchestrator and the `.scn` loader all call it; each
/// decides only how to name the offending entry (an index, or a line).

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <tuple>
#include <utility>

#include "faults/FaultPlan.h"
#include "faults/FleetFaultPlan.h"

namespace vg {

namespace {

using faults::LinkFault;
using faults::PlanGroup;
using faults::PlanViolation;

constexpr std::int64_t kOpenEnd = std::numeric_limits<std::int64_t>::max();

/// A half-open [start, end) fault window in ns from arm. Windows that share a
/// key (one link and kind, one device, one region) may touch but not overlap.
struct Window {
  std::int64_t start;
  std::int64_t end;  // kOpenEnd: a device fault that never recovers
  std::uint32_t key;
  std::size_t index;  // entry within its plan group

  [[nodiscard]] bool overlaps(const Window& o) const {
    return start < o.end && o.start < end;
  }
};

Window span(sim::Duration start, sim::Duration duration,
            std::uint32_t key = 0) {
  return {start.ns(), (start + duration).ns(), key, 0};
}

/// An entry's own [start, start + duration) window, under key 0.
constexpr auto span_of = [](const auto& e) {
  return span(e.start, e.duration);
};

/// Two flaps on one link would double-toggle it, while a flap under a
/// latency spike is a meaningful scenario: each (link, kind) is one key.
Window link_window(const LinkFault& f) {
  return span(f.start, f.duration,
              static_cast<std::uint32_t>(f.where) * 3 +
                  static_cast<std::uint32_t>(f.kind));
}

bool negative(std::initializer_list<sim::Duration> times) {
  return std::any_of(times.begin(), times.end(),
                     [](sim::Duration d) { return d.ns() < 0; });
}

PlanViolation bad(PlanGroup group, std::size_t i, std::string reason) {
  return {group, i, group, PlanViolation::kNone, std::move(reason)};
}

/// Checks one group's windows: none may start before arm or end before it
/// starts, and no two with one key may overlap. Windows are swept by (key,
/// start, entry order) against the latest-ending one so far; the later of an
/// overlapping pair is the offender.
template <class Entry, class ToWindow>
std::optional<PlanViolation> check_windows(const std::vector<Entry>& entries,
                                           PlanGroup group, const char* what,
                                           ToWindow to_window) {
  std::vector<Window> ws;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Window w = to_window(entries[i]);
    if (w.start < 0 || w.end < w.start) {
      return bad(group, i, std::string{"negative "} + what + " time");
    }
    if (entries.size() > 1) ws.push_back({w.start, w.end, w.key, i});
  }
  std::sort(ws.begin(), ws.end(), [](const Window& a, const Window& b) {
    return std::tie(a.key, a.start, a.index) <
           std::tie(b.key, b.start, b.index);
  });
  for (std::size_t i = 1, latest = 0; i < ws.size(); ++i) {
    const Window& w = ws[i];
    const Window& l = ws[latest];
    if (w.key == l.key && l.overlaps(w)) {
      return PlanViolation{group, w.index, group, l.index,
                           std::string{what} + " window starting at " +
                               std::to_string(w.start / 1'000'000'000.0) +
                               " s overlaps the one"};
    }
    if (w.key != l.key || w.end > l.end) latest = i;
  }
  return std::nullopt;
}

/// The first fleet window (in entry order) that meets a base window with the
/// same key, i.e. one the injector would have to merge it with.
template <class F, class B, class ToFleet, class ToBase>
std::optional<PlanViolation> find_collision(
    const std::vector<F>& fleet, PlanGroup group, ToFleet to_fleet,
    const std::vector<B>& base, PlanGroup base_group, ToBase to_base,
    const char* what) {
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const Window x = to_fleet(fleet[i]);
    for (std::size_t j = 0; j < base.size(); ++j) {
      const Window y = to_base(base[j]);
      if (x.key == y.key && x.overlaps(y)) {
        return PlanViolation{group, i, base_group, j,
                             std::string{what} + " window collides with "
                                                 "the base [faults] window"};
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string faults::PlanViolation::describe(const std::string& plan) const {
  std::string s = reason;
  if (other != kNone) s += " from entry " + std::to_string(other);
  return s + " in plan '" + plan + "'";
}

std::optional<PlanViolation> faults::validate(const FaultPlan& plan,
                                              std::size_t devices) {
  using enum PlanGroup;
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    const LinkFault& f = plan.links[i];
    if (f.kind == LinkFault::Kind::kLatencySpike &&
        negative({f.extra_latency})) {
      return bad(kLink, i, "negative latency spike");
    }
  }
  if (auto v = check_windows(plan.links, kLink, "link-fault", link_window)) {
    return v;
  }
  if (auto v = check_windows(plan.cloud, kCloud, "cloud-outage", span_of)) {
    return v;
  }
  for (std::size_t i = 0; i < plan.brownouts.size(); ++i) {
    if (negative({plan.brownouts[i].extra_latency})) {
      return bad(kBrownout, i, "negative cloud-brownout time");
    }
  }
  if (auto v = check_windows(plan.brownouts, kBrownout, "cloud-brownout",
                             span_of)) {
    return v;
  }
  for (std::size_t i = 0; i < plan.fcm.size(); ++i) {
    const FcmFault& f = plan.fcm[i];
    if (negative({f.extra_delay})) {
      return bad(kFcm, i, "negative fcm-fault time");
    }
    if (f.drop_prob < 0.0 || f.drop_prob > 1.0) {
      return bad(kFcm, i, "fcm drop_prob out of [0,1]");
    }
  }
  if (auto v = check_windows(plan.fcm, kFcm, "fcm-fault", span_of)) return v;

  for (std::size_t i = 0; i < plan.devices.size(); ++i) {
    const int d = plan.devices[i].device;
    if (d < 0 || static_cast<std::size_t>(d) >= devices) {
      return bad(kDevice, i,
                 "device index " + std::to_string(d) + " out of range (" +
                     std::to_string(devices) + " owner devices)");
    }
  }
  if (auto v = check_windows(
          plan.devices, kDevice, "device-fault", [](const DeviceFault& f) {
            Window w = span(f.start, f.duration,
                            static_cast<std::uint32_t>(f.device));
            if (f.duration.ns() == 0) w.end = kOpenEnd;  // never recovers
            return w;
          })) {
    return v;
  }

  for (std::size_t i = 0; i < plan.restarts.size(); ++i) {
    const sim::Duration at = plan.restarts[i].at;
    if (negative({at})) return bad(kRestart, i, "negative restart time");
    for (std::size_t j = 0; j < i; ++j) {
      if (plan.restarts[j].at == at) {
        return bad(kRestart, i, "duplicate guard restart instant");
      }
    }
  }
  return std::nullopt;
}

std::optional<PlanViolation> fleet::validate(const FleetFaultPlan& plan,
                                             std::uint64_t homes,
                                             const faults::FaultPlan& base) {
  using enum PlanGroup;
  if (plan.regions < 1 || plan.regions > kMaxRegions) {
    return bad(kRegions, 0,
               "regions out of [1," + std::to_string(kMaxRegions) + "]");
  }
  if (homes < plan.regions) {
    return bad(kRegions, 0,
               std::to_string(plan.regions) +
                   " regions exceed the population's " +
                   std::to_string(homes) +
                   " homes (guaranteed zero-home regions)");
  }
  const auto out_of_range = [&plan](std::uint32_t region) {
    return "region " + std::to_string(region) + " out of range (" +
           std::to_string(plan.regions) + " regions)";
  };
  const auto regional = [](const auto& e) {
    return span(e.start, e.duration, e.region);
  };
  // A capacity event's per-home cloud window can grow to its refusal plus
  // the longest load-coupled re-admission stagger.
  const auto envelope = [](const CloudCapacityEvent& e) {
    return span(e.start, e.duration + e.recovery_spread);
  };

  for (std::size_t i = 0; i < plan.fcm_outages.size(); ++i) {
    const RegionalFcmOutage& o = plan.fcm_outages[i];
    if (o.region >= plan.regions) {
      return bad(kFleetFcm, i, out_of_range(o.region));
    }
    if (negative({o.extra_delay})) {
      return bad(kFleetFcm, i, "negative regional fcm-outage time");
    }
    if (o.drop_prob < 0.0 || o.drop_prob > 1.0) {
      return bad(kFleetFcm, i, "fcm-outage drop_prob out of [0,1]");
    }
  }
  if (auto v = check_windows(plan.fcm_outages, kFleetFcm,
                             "regional fcm-outage", regional)) {
    return v;
  }
  for (std::size_t i = 0; i < plan.cloud_capacity.size(); ++i) {
    const CloudCapacityEvent& e = plan.cloud_capacity[i];
    if (negative({e.duration, e.recovery_spread, e.extra_latency})) {
      return bad(kCapacity, i, "negative cloud-capacity time");
    }
    if (e.fraction <= 0.0 || e.fraction > 1.0) {
      return bad(kCapacity, i, "cloud-capacity fraction out of (0,1]");
    }
  }
  if (auto v = check_windows(plan.cloud_capacity, kCapacity, "cloud-capacity",
                             envelope)) {
    return v;
  }
  for (std::size_t i = 0; i < plan.wan_degrades.size(); ++i) {
    const WanDegradeWindow& w = plan.wan_degrades[i];
    if (w.region >= plan.regions) return bad(kWan, i, out_of_range(w.region));
    if (negative({w.extra_latency})) {
      return bad(kWan, i, "negative regional wan-degrade time");
    }
  }
  if (auto v = check_windows(plan.wan_degrades, kWan, "regional wan-degrade",
                             regional)) {
    return v;
  }
  for (std::size_t i = 0; i < plan.restart_waves.size(); ++i) {
    const GuardRestartWave& w = plan.restart_waves[i];
    if (negative({w.start, w.stagger})) {
      return bad(kWave, i, "negative restart-wave time");
    }
    if (w.fraction <= 0.0 || w.fraction > 1.0) {
      return bad(kWave, i, "restart-wave fraction out of (0,1]");
    }
  }

  // The base plan applies to every home, so any regional window may meet it
  // in the per-home plan the orchestrator expands it into.
  if (auto v = find_collision(plan.fcm_outages, kFleetFcm, span_of, base.fcm,
                              kFcm, span_of, "fcm_outage")) {
    return v;
  }
  if (auto v = find_collision(plan.cloud_capacity, kCapacity, envelope,
                              base.cloud, kCloud, span_of, "cloud_capacity")) {
    return v;
  }
  if (auto v = find_collision(plan.cloud_capacity, kCapacity, span_of,
                              base.brownouts, kBrownout, span_of,
                              "cloud_capacity brownout")) {
    return v;
  }
  return find_collision(
      plan.wan_degrades, kWan,
      [](const WanDegradeWindow& w) {  // lands as a WAN latency spike
        return link_window({LinkFault::Where::kWan,
                            LinkFault::Kind::kLatencySpike, w.start,
                            w.duration, {}, {}});
      },
      base.links, kLink, link_window, "wan_degrade");
}

}  // namespace vg
