#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/Simulation.h"

/// \file Fcm.h
/// Firebase Cloud Messaging stand-in. The Decision Module wakes the owner's
/// phone/watch by FCM push (Fig. 5, step 4); delivery latency is the largest
/// single component of the Fig. 7 end-to-end delay.
///
/// Substitution note (DESIGN.md): we model FCM as a latency distribution
/// rather than routing pushes through netsim — the prototype's pushes
/// traversed Google's infrastructure, which the paper also could not observe;
/// only the delay distribution matters to any reported result. Lognormal with
/// a ~0.65 s median and a tail past 2 s reproduces the Fig. 7 spread.

namespace vg::home {

class FcmService {
 public:
  struct Options {
    /// Calibrated so the end-to-end verification pipeline (push + BLE scan +
    /// report) averages ~1.6 s, the Fig. 7 Echo Dot measurement.
    double latency_lognormal_mu = -0.155;  // exp(mu) ≈ 0.86 s median
    double latency_lognormal_sigma = 0.38;
    sim::Duration min_latency = sim::milliseconds(180);
    sim::Duration max_latency = sim::seconds(5);
  };

  explicit FcmService(sim::Simulation& sim) : FcmService(sim, Options{}) {}
  FcmService(sim::Simulation& sim, Options opts)
      : sim_(sim),
        opts_(opts),
        rng_(sim.rng("home.fcm")),
        fault_rng_(sim.rng("home.fcm.fault")) {}

  using Handler = std::function<void(const std::string& payload)>;

  /// Registers a device token. Re-registering replaces the handler.
  void register_device(const std::string& token, Handler handler) {
    devices_[token] = std::move(handler);
  }

  /// Pushes \p payload to \p token; delivered after a sampled latency.
  /// Unknown tokens are dropped silently (as FCM does).
  void push(const std::string& token, std::string payload);

  /// Degrades delivery inside [start, end): each push is dropped with
  /// \p drop_prob (drawn from the dedicated "home.fcm.fault" stream so runs
  /// without windows keep their seed-era draws) and survivors get
  /// \p extra_delay on top of the sampled latency.
  void add_fault_window(sim::TimePoint start, sim::TimePoint end,
                        sim::Duration extra_delay, double drop_prob);

  [[nodiscard]] std::uint64_t pushes_sent() const { return pushes_; }
  [[nodiscard]] std::uint64_t pushes_dropped() const { return dropped_; }

 private:
  struct FaultWindow {
    sim::TimePoint start, end;
    sim::Duration extra_delay;
    double drop_prob;
  };

  sim::Duration sample_latency();

  sim::Simulation& sim_;
  Options opts_;
  sim::Rng& rng_;
  sim::Rng& fault_rng_;
  std::unordered_map<std::string, Handler> devices_;
  std::uint64_t pushes_{0};
  std::uint64_t dropped_{0};
  std::vector<FaultWindow> faults_;
};

}  // namespace vg::home
