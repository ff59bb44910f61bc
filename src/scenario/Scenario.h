#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faults/FaultPlan.h"
#include "faults/FleetFaultPlan.h"
#include "netsim/Address.h"
#include "netsim/Packet.h"
#include "simcore/Time.h"
#include "voiceguard/GuardBox.h"
#include "voiceguard/Recognizer.h"

/// \file Scenario.h
/// Pure-data description of one end-to-end scenario: the testbed, the speaker
/// model, the guard's mode/degradation policy, the command schedule (scripted
/// offsets or a capture loop), an embedded faults::FaultPlan, and — for
/// synthetic traces — the capture operations plus hand-derived ground truth.
///
/// A ScenarioSpec carries no behaviour and references no live objects; the
/// workload layer installs it into a SmartHomeWorld (or the minimal
/// speaker--guard--router--cloud chain) and runs it. The flat `.scn` text
/// format (ScenarioLoader / write_scn) round-trips these structs exactly, so
/// hand-written C++ scenarios and their checked-in `.scn` ports can be pinned
/// bit-identical by test.

namespace vg::scenario {

/// Which harness runs the scenario.
enum class Kind {
  kHome,       // full SmartHomeWorld (radio, people, decision module)
  kChain,      // minimal speaker--guard--router--cloud chain (no radio)
  kSynthetic,  // hand-built trace, no simulation at all
};

/// Mirrors workload::WorldConfig::TestbedKind without depending on workload.
enum class Testbed { kHouse, kApartment, kOffice };

/// Mirrors workload::WorldConfig::SpeakerType.
enum class Speaker { kEchoDot, kGoogleHomeMini };

std::string to_string(Kind k);
std::string to_string(Testbed t);
std::string to_string(Speaker s);
std::optional<Kind> parse_kind(std::string_view s);
std::optional<Testbed> parse_testbed(std::string_view s);
std::optional<Speaker> parse_speaker(std::string_view s);
std::optional<guard::GuardMode> parse_guard_mode(std::string_view s);
std::optional<guard::FailPolicy> parse_fail_policy(std::string_view s);
std::optional<guard::SpikeClass> parse_spike_class(std::string_view s);
std::optional<guard::MatchedRule> parse_matched_rule(std::string_view s);

/// The home under test. Defaults mirror workload::WorldConfig.
struct HomeSpec {
  Testbed testbed{Testbed::kHouse};
  int deployment{1};  // speaker deployment location, 1 or 2
  int owners{2};
  bool watch{false};
  bool motion_sensor{true};

  friend bool operator==(const HomeSpec&, const HomeSpec&) = default;
};

/// Guard mode plus the graceful-degradation knobs of WorldConfig.
struct GuardSpec {
  guard::GuardMode mode{guard::GuardMode::kVoiceGuard};
  guard::FailPolicy fail_policy{guard::FailPolicy::kFailClosed};
  sim::Duration verdict_timeout{};  // 0 disables
  int hold_queue_cap{256};          // 0 disables
  int fcm_max_retries{0};
  sim::Duration fcm_retry_initial{sim::from_seconds(1.5)};

  friend bool operator==(const GuardSpec&, const GuardSpec&) = default;
};

/// One scripted command: issued at a fixed offset from the start of the
/// script, from the legitimate area or from the farthest room (attack).
struct CommandStep {
  sim::Duration at{};
  bool attack{false};

  friend bool operator==(const CommandStep&, const CommandStep&) = default;
};

/// Either a scripted command sequence (commands non-empty: calibrate, then
/// fixed offsets, then drain — the chaos-matrix shape) or a capture loop
/// (loop_commands > 0: boot, then N commands at randomized gaps, then tail —
/// the golden-trace shape). Exactly one of the two is active.
struct ScheduleSpec {
  std::vector<CommandStep> commands;
  sim::Duration drain{sim::seconds(215)};

  int loop_commands{0};
  sim::Duration boot{sim::seconds(10)};
  double gap_base_s{24.0};
  double gap_jitter_s{8.0};
  sim::Duration tail{sim::seconds(8)};

  [[nodiscard]] bool scripted() const { return !commands.empty(); }

  friend bool operator==(const ScheduleSpec&, const ScheduleSpec&) = default;
};

/// `.scn` phase 2: one scripted home spec describing a whole population.
/// Home 0 runs the base spec verbatim; homes 1..N-1 derive their world seed
/// from the base seed (splitmix64 stream over the home index) and jitter the
/// schedule within the declared bounds. fleet::WorldTemplate expands the
/// derived per-home specs; absent section (homes == 0) means a single home.
struct PopulationSpec {
  std::uint64_t homes{0};        // 0 = section absent, ordinary single home
  double command_jitter_s{0.0};  // max extra gap before each command, [0, 10]
  double attack_flip{0.0};       // per-command chance of flipping `attack`

  [[nodiscard]] bool enabled() const { return homes > 0; }

  friend bool operator==(const PopulationSpec&, const PopulationSpec&) = default;
};

/// Knobs of the minimal-chain harness (Kind::kChain only).
struct ChainSpec {
  sim::Duration avs_migration_mean{};  // 0 = the AVS pool never migrates
  /// Echo Dot only: mean spacing of unmonitored misc-Amazon connections.
  std::optional<sim::Duration> misc_connection_mean;
  /// Google Home Mini only: fraction of interactions riding QUIC.
  std::optional<double> quic_probability;

  friend bool operator==(const ChainSpec&, const ChainSpec&) = default;
};

/// One operation of a synthetic (hand-built) capture. Timestamps are
/// milliseconds from the trace epoch; multi-record ops (signature bursts,
/// spikes) space their records 10 ms apart like the hand-written scenario.
struct CaptureOp {
  enum class Kind { kDns, kFlow, kSignature, kTls, kSpike, kDatagram };

  Kind kind{Kind::kTls};
  std::int64_t at_ms{0};
  std::uint8_t domain{0};                    // kDns: trace::kDomain* code
  net::IpAddress ip{};                       // kDns answer / kFlow server IP
  net::Protocol proto{net::Protocol::kTcp};  // kFlow
  std::uint16_t sport{0};                    // kFlow: speaker-side port
  std::uint16_t dport{443};                  // kFlow: server-side port
  int flow{0};       // kSignature/kTls/kSpike/kDatagram: dense flow index
  bool upstream{true};                       // kTls / kDatagram
  std::uint32_t len{0};                      // kTls / kDatagram
  std::vector<std::uint32_t> lens;           // kSpike: upstream record sizes

  friend bool operator==(const CaptureOp&, const CaptureOp&) = default;
};

/// Hand-derived ground truth for a synthetic capture, field-for-field
/// comparable with trace::ReplaySpike (flow_id is trace flow index + 1).
struct ExpectedSpike {
  std::uint64_t flow_id{0};
  bool udp{false};
  std::int64_t at_ms{0};
  std::vector<std::uint32_t> prefix;
  guard::SpikeClass cls{guard::SpikeClass::kUnknown};
  guard::MatchedRule rule{guard::MatchedRule::kNone};

  friend bool operator==(const ExpectedSpike&, const ExpectedSpike&) = default;
};

struct ScenarioSpec {
  std::string name;
  Kind kind{Kind::kHome};
  std::uint64_t seed{1};
  Speaker speaker{Speaker::kEchoDot};

  HomeSpec home;          // kHome
  GuardSpec guard;        // kHome scripted runs (captures force monitor mode)
  ScheduleSpec schedule;  // kHome / kChain
  ChainSpec chain;        // kChain
  faults::FaultPlan faults;            // kHome; faults.name mirrors `name`
  PopulationSpec population;           // kHome scripted only
  /// Fleet-level fault schedule (`[fleet_faults]`), expanded per home by
  /// fleet::FleetFaultOrchestrator. Requires a [population]; the name mirrors
  /// `name` like faults.name does.
  fleet::FleetFaultPlan fleet_faults;  // kHome scripted populations only
  std::vector<CaptureOp> capture;      // kSynthetic
  std::vector<ExpectedSpike> expected; // kSynthetic

  [[nodiscard]] bool scripted() const {
    return kind == Kind::kHome && schedule.scripted();
  }

  /// One-line human description (vgscn describe / gen).
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

}  // namespace vg::scenario
