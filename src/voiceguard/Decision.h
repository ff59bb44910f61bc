#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "home/Fcm.h"
#include "home/MobileDevice.h"
#include "radio/Bluetooth.h"
#include "simcore/Simulation.h"

/// \file Decision.h
/// The Decision Module (§IV-C): an extensible legitimacy oracle for held
/// voice commands. The default implementation is the Bluetooth-RSSI method of
/// Fig. 5: push an FCM request to every registered owner device, each device
/// measures the speaker's Bluetooth RSSI and reports back, and the command is
/// legitimate iff at least one device is above its learned threshold (and its
/// floor gate, if any, agrees).

namespace vg::guard {

class FloorTracker;

/// Abstract decision oracle. query() wraps the implementation with latency
/// bookkeeping — the "RSSI verification time" distribution of Fig. 7.
class DecisionModule {
 public:
  using Verdict = std::function<void(bool legit)>;

  explicit DecisionModule(sim::Simulation& sim) : sim_(sim) {}
  virtual ~DecisionModule() = default;

  void query(Verdict verdict);

  [[nodiscard]] const std::vector<double>& latencies_s() const {
    return latencies_;
  }
  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  [[nodiscard]] std::uint64_t legit_verdicts() const { return legit_; }
  [[nodiscard]] std::uint64_t malicious_verdicts() const { return malicious_; }

 protected:
  virtual void do_query(Verdict verdict) = 0;
  sim::Simulation& sim_;

 private:
  std::vector<double> latencies_;
  std::uint64_t queries_{0};
  std::uint64_t legit_{0};
  std::uint64_t malicious_{0};
};

/// Fixed-answer oracles for tests and ablations.
class FixedDecisionModule : public DecisionModule {
 public:
  FixedDecisionModule(sim::Simulation& sim, bool answer,
                      sim::Duration latency = sim::milliseconds(1))
      : DecisionModule(sim), answer_(answer), latency_(latency) {}

 protected:
  void do_query(Verdict verdict) override {
    sim_.after(latency_, [verdict = std::move(verdict), a = answer_] {
      verdict(a);
    });
  }

 private:
  bool answer_;
  sim::Duration latency_;
};

/// Wraps any boolean presence oracle (footstep identification [51], gait
/// [85], Wi-Fi identification [81], RFID [42] — the §VII integration
/// candidates) as a decision module with a processing latency.
class PresenceOracleModule : public DecisionModule {
 public:
  PresenceOracleModule(sim::Simulation& sim, std::string name,
                       std::function<bool()> oracle,
                       sim::Duration latency = sim::milliseconds(400))
      : DecisionModule(sim),
        name_(std::move(name)),
        oracle_(std::move(oracle)),
        latency_(latency) {}

  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  void do_query(Verdict verdict) override {
    sim_.after(latency_, [this, verdict = std::move(verdict)] {
      verdict(oracle_());
    });
  }

 private:
  std::string name_;
  std::function<bool()> oracle_;
  sim::Duration latency_;
};

/// Combines several decision modules — the "open and extensible framework"
/// of §VII. kAny: legitimate if any sub-module approves (multiple
/// *sufficient* evidence sources, e.g. RSSI or footstep-ID). kAll: every
/// sub-module must approve (defense in depth). Early-concludes as soon as
/// the outcome is determined.
class CompositeDecisionModule : public DecisionModule {
 public:
  enum class Policy { kAny, kAll };

  CompositeDecisionModule(sim::Simulation& sim, Policy policy)
      : DecisionModule(sim), policy_(policy) {}

  /// Sub-modules are not owned; they must outlive the composite.
  void add(DecisionModule& sub) { subs_.push_back(&sub); }

  [[nodiscard]] std::size_t size() const { return subs_.size(); }

 protected:
  void do_query(Verdict verdict) override;

 private:
  Policy policy_;
  std::vector<DecisionModule*> subs_;
};

/// The Bluetooth-RSSI decision method with multi-user support.
class RssiDecisionModule : public DecisionModule {
 public:
  struct Options {
    /// A device that has not reported by then counts as "not nearby".
    sim::Duration device_timeout = sim::seconds(6);
    /// Bounded FCM retry with exponential backoff: devices that have not
    /// reported are re-pushed after fcm_retry_initial, then 2x, 4x, ... up to
    /// fcm_max_retries rounds. Default off — retries draw no extra FCM
    /// latency samples, so benign runs stay bit-identical to the seed; the
    /// chaos worlds opt in.
    int fcm_max_retries = 0;
    sim::Duration fcm_retry_initial = sim::from_seconds(1.5);
    /// Jittered backoff: each retry wait is shortened by a uniform draw of up
    /// to this fraction (from the dedicated "guard.fcm.backoff" stream), so a
    /// fleet of guards whose region recovers together does not re-push FCM in
    /// lockstep. 0 (default) draws nothing — bit-identical to seed.
    double fcm_retry_jitter = 0.0;
    /// Total re-pushes this module may send over its lifetime (the retry
    /// path's reconnect budget); once spent, pending retry rounds stop.
    /// 0 = unbounded.
    int fcm_retry_budget = 0;
  };

  RssiDecisionModule(sim::Simulation& sim, home::FcmService& fcm,
                     const radio::BluetoothBeacon& speaker_beacon)
      : RssiDecisionModule(sim, fcm, speaker_beacon, Options{}) {}
  RssiDecisionModule(sim::Simulation& sim, home::FcmService& fcm,
                     const radio::BluetoothBeacon& speaker_beacon,
                     Options opts);

  /// Registers an owner device with its learned RSSI threshold. Registration
  /// requires the owner's manual approval in the real system; here the
  /// experiment harness is the owner. \p floor (optional, multi-floor homes)
  /// vetoes the device's vote when the tracker places it on another floor.
  void register_device(home::MobileDevice& device, double threshold,
                       FloorTracker* floor = nullptr);

  /// Adjusts a device's threshold (ablation benches).
  void set_threshold(const std::string& device_name, double threshold);

  struct Report {
    std::string device;
    double rssi{0};
    double threshold{0};
    bool floor_ok{true};
    bool timed_out{false};
  };
  struct QueryRecord {
    sim::TimePoint when;
    std::vector<Report> reports;
    bool legit{false};
  };
  [[nodiscard]] const std::vector<QueryRecord>& history() const {
    return history_;
  }
  /// Re-pushes sent by the retry policy (one per unreported device per round).
  [[nodiscard]] std::uint64_t fcm_retries() const { return fcm_retries_; }
  /// Device reports that arrived after their query had already concluded;
  /// they are counted and otherwise ignored (never touch freed query state).
  [[nodiscard]] std::uint64_t late_reports() const { return late_reports_; }

 protected:
  void do_query(Verdict verdict) override;

 private:
  struct Registered {
    home::MobileDevice* device;
    double threshold;
    FloorTracker* floor;
  };
  struct PendingQuery {
    Verdict verdict;
    std::size_t outstanding{0};
    QueryRecord record;
    sim::EventId timeout{};
    std::vector<bool> reported;  // per-device first-report dedupe
    sim::EventId retry_timer{};
    int retries_left{0};
    sim::Duration retry_wait{};
  };

  void on_report(std::uint64_t query_id, std::size_t device_idx, double rssi,
                 bool timed_out);
  void on_timeout(std::uint64_t query_id);
  void on_retry(std::uint64_t query_id);
  /// \p base shortened by the jitter draw (identity when jitter is off).
  sim::Duration retry_delay(sim::Duration base);
  [[nodiscard]] bool retry_budget_spent() const {
    return opts_.fcm_retry_budget > 0 &&
           fcm_retries_ >= static_cast<std::uint64_t>(opts_.fcm_retry_budget);
  }
  /// Delivers the verdict for \p query_id and retires the query. The entry is
  /// moved out of pending_ and both timers cancelled *before* the verdict
  /// callback runs: a re-entrant query() may rehash pending_, which would
  /// dangle any reference held across the call.
  void finish(std::uint64_t query_id, bool legit);

  home::FcmService& fcm_;
  const radio::BluetoothBeacon& beacon_;
  Options opts_;
  sim::Rng& backoff_rng_;  // "guard.fcm.backoff": retry jitter
  std::vector<Registered> devices_;
  std::unordered_map<std::uint64_t, PendingQuery> pending_;
  std::uint64_t next_query_id_{1};
  std::vector<QueryRecord> history_;
  std::uint64_t fcm_retries_{0};
  std::uint64_t late_reports_{0};
};

}  // namespace vg::guard
