#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "faults/FleetFaultPlan.h"
#include "workload/ChaosScenarios.h"

/// \file AggregateStats.h
/// Streaming, exactly-mergeable statistics over a fleet run. Result memory is
/// O(shards), never O(homes): each shard folds its finished homes into one
/// AggregateStats and the shard objects merge at the end — no per-home result
/// vectors anywhere.
///
/// Every accumulator is an integer (histogram bin counts, fixed-point sums,
/// min/max in fixed point), so merge() is commutative and associative
/// *bit-for-bit*: folding homes one at a time, in any grouping, on any number
/// of shards, yields the same object. That integer-exactness is what makes
/// the fleet-vs-serial parity invariant (tests/test_fleet.cpp, the fuzzer's
/// population check) a strict equality rather than an epsilon comparison.

namespace vg::fleet {

class AggregateStats {
 public:
  /// Decision latency: 25 ms bins over [0, 12.8 s), plus one overflow bin.
  static constexpr std::size_t kLatencyBins = 512;
  static constexpr std::int64_t kLatencyBinNs = 25'000'000;
  /// RSSI: 0.5 dBm bins over [-120, 8) dBm, plus one out-of-range bin.
  static constexpr std::size_t kRssiBins = 256;
  static constexpr double kRssiMin = -120.0;
  static constexpr double kRssiStep = 0.5;
  /// Per-home recovery time after the last fault transition: 250 ms bins
  /// over [0, 128 s), plus one overflow bin.
  static constexpr std::size_t kRecoveryBins = 512;
  static constexpr std::int64_t kRecoveryBinNs = 250'000'000;

  /// Fleet-wide counters: the sum of every home's ChaosResult counters plus
  /// home/command/event totals. All u64 so merge is exact.
  struct Counters {
    std::uint64_t homes{0};
    std::uint64_t commands{0};
    std::uint64_t attacks{0};
    std::uint64_t events{0};  // simulation events executed across all homes

    std::uint64_t spikes{0};
    std::uint64_t unresolved_spikes{0};
    std::uint64_t held_outstanding{0};
    std::uint64_t released{0};
    std::uint64_t blocked{0};
    std::uint64_t forced_open{0};
    std::uint64_t forced_closed{0};
    std::uint64_t hold_overflows{0};
    std::uint64_t guard_restarts{0};
    std::uint64_t link_dropped{0};
    std::uint64_t flap_dropped{0};
    std::uint64_t burst_dropped{0};
    std::uint64_t seq_violations{0};
    std::uint64_t sessions_killed{0};
    std::uint64_t outage_refused{0};
    std::uint64_t avs_migrations{0};
    std::uint64_t fcm_pushes{0};
    std::uint64_t fcm_dropped{0};
    std::uint64_t fcm_retries{0};
    std::uint64_t late_reports{0};
    std::uint64_t device_ignored{0};
    std::uint64_t interactions{0};
    std::uint64_t responses{0};
    std::uint64_t connection_errors{0};
    std::uint64_t reconnects{0};
    std::uint64_t commands_executed{0};
    std::uint64_t faults_injected{0};
    /// Fleet orchestration (FleetFaultOrchestrator): per-home fault entries
    /// the plan expanded on top of the base [faults], homes that received at
    /// least one, and fault-touched homes whose speaker never re-established
    /// its cloud session before the horizon.
    std::uint64_t orchestrated_faults{0};
    std::uint64_t orchestrated_homes{0};
    std::uint64_t unrecovered_homes{0};

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  /// Folds one finished home's counters in. \p commands and \p attacks come
  /// from the home's derived spec, \p events from its simulation.
  void add_home(const workload::ChaosResult& r, std::uint64_t events,
                std::uint64_t commands, std::uint64_t attacks);

  /// One decision latency sample (seconds, as DecisionModule::latencies_s).
  void add_latency(double seconds);

  /// One RSSI report sample (dBm).
  void add_rssi(double dbm);

  /// One fault-touched home's recovery. \p recovered is false when the home's
  /// speaker never re-established its cloud session before the horizon (the
  /// home then contributes no recovery-time sample); \p recovery_ns is the
  /// gap between the last fault transition and the final session
  /// (re-)establishment, 0 when the session survived every fault.
  void add_recovery(std::uint64_t recovery_ns, bool recovered);

  /// One home's share of the orchestrated fleet plan: \p region from
  /// FleetFaultOrchestrator::region_of, \p orchestrated_faults the entries
  /// apply() expanded for this home (0 = the plan skipped it).
  void add_orchestration(std::uint32_t region,
                         std::uint64_t orchestrated_faults);

  /// Exact merge: every counter, bin and fixed-point sum adds elementwise.
  void merge(const AggregateStats& other);

  struct Percentiles {
    double p50{0.0};
    double p95{0.0};
    double p99{0.0};
  };
  /// Upper bin edges at the 50/95/99th percentile of the latency histogram
  /// (all zero when no samples). Pure function of merged state.
  [[nodiscard]] Percentiles latency_percentiles() const;

  [[nodiscard]] std::uint64_t latency_samples() const { return latency_count_; }
  [[nodiscard]] double mean_latency_s() const;
  [[nodiscard]] std::uint64_t rssi_samples() const { return rssi_count_; }
  [[nodiscard]] double mean_rssi_dbm() const;

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::array<std::uint64_t, kLatencyBins + 1>&
  latency_hist() const {
    return latency_hist_;
  }
  [[nodiscard]] std::uint64_t recovery_samples() const {
    return recovery_count_;
  }
  [[nodiscard]] double mean_recovery_s() const;
  [[nodiscard]] const std::array<std::uint64_t, kRecoveryBins + 1>&
  recovery_hist() const {
    return recovery_hist_;
  }
  /// The fleet-level recovery metric: the slowest recovered home's gap
  /// between its last fault transition and its final session establishment.
  /// A u64 max, so merging shards is order-independent and exact.
  [[nodiscard]] std::uint64_t time_to_fleet_recovery_ns() const {
    return fleet_recovery_ns_;
  }
  /// Homes with orchestrated faults, by region (degradation counters).
  [[nodiscard]] const std::array<std::uint64_t, kMaxRegions>&
  region_degraded() const {
    return region_degraded_;
  }

  /// FNV-1a digest over every accumulator; equal fingerprints mean two fleet
  /// runs were behaviourally identical home for home.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Multi-line human summary (vgscn fleet / bench_fleet).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const AggregateStats&, const AggregateStats&) = default;

 private:
  Counters counters_{};
  std::array<std::uint64_t, kLatencyBins + 1> latency_hist_{};
  std::uint64_t latency_count_{0};
  std::uint64_t latency_sum_ns_{0};
  std::array<std::uint64_t, kRssiBins + 1> rssi_hist_{};
  std::uint64_t rssi_count_{0};
  std::int64_t rssi_sum_millidbm_{0};
  std::array<std::uint64_t, kRecoveryBins + 1> recovery_hist_{};
  std::uint64_t recovery_count_{0};
  std::uint64_t recovery_sum_ns_{0};
  std::uint64_t fleet_recovery_ns_{0};  // max over homes; max-merge is exact
  std::array<std::uint64_t, kMaxRegions> region_degraded_{};
};

}  // namespace vg::fleet
