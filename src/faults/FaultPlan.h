#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netsim/Node.h"
#include "simcore/Simulation.h"

/// \file FaultPlan.h
/// Declarative, deterministic fault schedules for the adverse-conditions
/// workload. A FaultPlan is pure data: every time is relative to the moment
/// the plan is armed (FaultInjector::arm), so the same plan replays
/// bit-identically at any point of any simulation. No randomness lives here;
/// the only stochastic fault (Gilbert–Elliott burst loss) draws from the
/// dedicated "net.link.burst" stream inside netsim::Link.

namespace vg::faults {

/// A scheduled disturbance on one of the testbed's two links.
struct LinkFault {
  enum class Where { kLan, kWan };
  enum class Kind { kFlap, kBurst, kLatencySpike };

  Where where{Where::kWan};
  Kind kind{Kind::kFlap};
  sim::Duration start{};     // relative to arm()
  sim::Duration duration{};
  net::GilbertElliott ge{};        // kBurst only
  sim::Duration extra_latency{};   // kLatencySpike only

  friend bool operator==(const LinkFault&, const LinkFault&) = default;
};

/// The whole AVS pool goes dark: new connections are refused (RST) for the
/// window; with rst_existing, live sessions are reset on the way down.
struct CloudOutage {
  sim::Duration start{};
  sim::Duration duration{};
  bool rst_existing{true};

  friend bool operator==(const CloudOutage&, const CloudOutage&) = default;
};

/// The AVS pool stays up but saturated: every command processed inside the
/// window takes extra_latency longer before its response streams back. The
/// load-coupled half of a shared-backend capacity incident (the refusal half
/// is a CloudOutage); connections stay alive throughout.
struct CloudBrownout {
  sim::Duration start{};
  sim::Duration duration{};
  sim::Duration extra_latency{};

  friend bool operator==(const CloudBrownout&, const CloudBrownout&) = default;
};

/// FCM degradation window: pushes are dropped with drop_prob and survivors
/// are delayed by extra_delay on top of the sampled latency.
struct FcmFault {
  sim::Duration start{};
  sim::Duration duration{};
  sim::Duration extra_delay{};
  double drop_prob{0};

  friend bool operator==(const FcmFault&, const FcmFault&) = default;
};

/// An owner device stops answering measurement requests (battery dead, app
/// killed). duration 0 means it never comes back.
struct DeviceFault {
  int device{0};  // index into FaultInjector::Targets::devices
  sim::Duration start{};
  sim::Duration duration{};

  friend bool operator==(const DeviceFault&, const DeviceFault&) = default;
};

/// The guard box crashes and restarts: all proxied flows abort, held packets
/// and learned recognizer state are lost.
struct GuardRestart {
  sim::Duration at{};

  friend bool operator==(const GuardRestart&, const GuardRestart&) = default;
};

struct FaultPlan {
  std::string name{"baseline"};
  std::vector<LinkFault> links;
  std::vector<CloudOutage> cloud;
  std::vector<CloudBrownout> brownouts;
  std::vector<FcmFault> fcm;
  std::vector<DeviceFault> devices;
  std::vector<GuardRestart> restarts;
  /// Honest label for the chaos invariants: this plan is *expected* to break
  /// live connections (flaps past the TCP retransmit budget, RST outages,
  /// guard restarts). Plans without it must leave every connection alive.
  bool may_break_connections{false};

  [[nodiscard]] bool empty() const {
    return links.empty() && cloud.empty() && brownouts.empty() &&
           fcm.empty() && devices.empty() && restarts.empty();
  }
  /// Scheduled fault entries across every category (a plan's "size").
  [[nodiscard]] std::size_t total_entries() const {
    return links.size() + cloud.size() + brownouts.size() + fcm.size() +
           devices.size() + restarts.size();
  }
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// The entry lists a plan violation can point into: the six FaultPlan
/// categories, then fleet::FleetFaultPlan's region count and event lists.
enum class PlanGroup : std::uint8_t {
  kLink, kCloud, kBrownout, kFcm, kDevice, kRestart,
  kRegions, kFleetFcm, kCapacity, kWan, kWave,
};
inline constexpr std::size_t kPlanGroups = 11;

/// Why a plan is rejected: the offending entry (an index into its group's
/// list) and, when the reason ends by naming another entry ("... overlaps the
/// one", "... collides with the base [faults] window"), that entry too.
struct PlanViolation {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  PlanGroup group{PlanGroup::kLink};
  std::size_t index{0};
  PlanGroup other_group{PlanGroup::kLink};
  std::size_t other{kNone};
  std::string reason;

  /// "<reason>[ from entry <other>] in plan '<plan>'".
  [[nodiscard]] std::string describe(const std::string& plan) const;
};

/// Every rule a FaultPlan obeys on its own, for a testbed with \p devices
/// owner devices: non-negative times, drop_prob in [0,1], device indices in
/// range, no overlap within a group (link faults per link and kind, device
/// faults per device) and no two guard restarts at one instant. Whether the
/// targets are wired is FaultInjector::arm's concern.
std::optional<PlanViolation> validate(const FaultPlan& plan,
                                      std::size_t devices);

/// One injected fault boundary, as it happened. Kind values are stable and
/// mirror trace::FaultCode numerically so observers can forward them into
/// `.vgt` annotation frames without a mapping table.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kFlapStart = 0,
    kFlapEnd = 1,
    kBurstStart = 2,
    kBurstEnd = 3,
    kLatencyStart = 4,
    kLatencyEnd = 5,
    kCloudDown = 6,
    kCloudUp = 7,
    kFcmDegraded = 8,
    kFcmNormal = 9,
    kDeviceDown = 10,
    kDeviceUp = 11,
    kGuardRestart = 12,
    kBrownoutStart = 13,
    kBrownoutEnd = 14,
  };

  Kind kind{Kind::kFlapStart};
  /// Kind-specific detail: link index (0 lan / 1 wan), device index, the
  /// rst_existing flag, or drop_prob in percent.
  std::uint64_t param{0};
  sim::TimePoint when{};
};

const char* to_string(FaultEvent::Kind kind);

}  // namespace vg::faults
