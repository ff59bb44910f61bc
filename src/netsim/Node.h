#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/Packet.h"
#include "simcore/Simulation.h"

/// \file Node.h
/// Topology primitives: nodes, point-to-point links, and the Network that
/// owns them. The VoiceGuard deployment is the chain
///   speaker --(lan link)-- guard box --(lan link)-- router --(wan)-- cloud,
/// with the guard box inline exactly as the laptop in the paper's prototype.

namespace vg::net {

class Link;

/// Anything that can terminate or forward packets.
class NetNode {
 public:
  virtual ~NetNode() = default;

  /// Called when a packet arrives over \p from at the current sim time.
  virtual void receive(Packet p, Link& from) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Shared context: the simulation handle plus global packet numbering.
class Network {
 public:
  explicit Network(sim::Simulation& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulation& sim() { return sim_; }

  std::uint64_t next_packet_id() { return next_packet_id_++; }

  /// Creates a bidirectional link between \p a and \p b with symmetric
  /// one-way latency \p latency, uniform jitter of +-\p jitter, and an
  /// independent per-packet loss probability \p loss_rate.
  Link& add_link(NetNode& a, NetNode& b, sim::Duration latency,
                 sim::Duration jitter = sim::Duration{0},
                 double loss_rate = 0.0);

 private:
  sim::Simulation& sim_;
  std::uint64_t next_packet_id_{1};
  std::vector<std::unique_ptr<Link>> links_;
};

/// Two-state Gilbert–Elliott burst-loss parameters. The chain advances once
/// per packet: from the good state it enters the bad (bursty) state with
/// p_enter_bad, from the bad state it recovers with p_exit_bad, and each
/// state drops packets independently at its own rate.
struct GilbertElliott {
  double p_enter_bad{0.15};
  double p_exit_bad{0.35};
  double loss_good{0.0};
  double loss_bad{1.0};

  friend bool operator==(const GilbertElliott&, const GilbertElliott&) = default;
};

/// A bidirectional point-to-point link with one-way latency, jitter and
/// optional random loss. No bandwidth limit: the home LAN and the broadband
/// uplink in the paper's testbeds were never the bottleneck, and the scheme's
/// behaviour depends on ordering/latency, not throughput.
///
/// Scheduled fault windows (installed by faults::FaultInjector) overlay the
/// benign behaviour: a *flap* drops every packet in its window, a *burst*
/// window applies Gilbert–Elliott correlated loss, and a *latency spike* adds
/// one-way delay. All fault randomness draws from the dedicated
/// "net.link.burst" stream, so runs without armed faults consume exactly the
/// seed-era draws.
class Link {
 public:
  Link(Network& net, NetNode& a, NetNode& b, sim::Duration latency,
       sim::Duration jitter, double loss_rate = 0.0);

  [[nodiscard]] std::uint64_t dropped_packets() const { return dropped_; }
  [[nodiscard]] std::uint64_t flap_dropped() const { return flap_dropped_; }
  [[nodiscard]] std::uint64_t burst_dropped() const { return burst_dropped_; }

  /// Drops every packet sent inside [start, end) — a hard link flap.
  void add_flap(sim::TimePoint start, sim::TimePoint end);
  /// Correlated loss inside [start, end); see GilbertElliott.
  void add_burst_loss(sim::TimePoint start, sim::TimePoint end,
                      GilbertElliott params);
  /// Adds \p extra one-way delay to packets sent inside [start, end). The
  /// per-direction FIFO clamp still applies, so ordering is preserved across
  /// the window edges.
  void add_latency_spike(sim::TimePoint start, sim::TimePoint end,
                         sim::Duration extra);

  /// Sends \p p from \p sender (must be one of the two endpoints) to the
  /// other endpoint after the link latency. Assigns the packet id if unset.
  void send_from(NetNode& sender, Packet p);

  [[nodiscard]] NetNode& peer_of(const NetNode& n) const;
  [[nodiscard]] bool connects(const NetNode& n) const {
    return &n == a_ || &n == b_;
  }

  /// In-order delivery guarantee: jitter never reorders packets in one
  /// direction (the later of "now + sampled latency" and "last scheduled
  /// delivery" is used).
 private:
  struct FlapWindow {
    sim::TimePoint start, end;
  };
  struct BurstWindow {
    sim::TimePoint start, end;
    GilbertElliott params;
    bool bad{false};  // current chain state, advanced per packet in-window
  };
  struct SpikeWindow {
    sim::TimePoint start, end;
    sim::Duration extra;
  };

  /// Returns true when the packet is consumed by an active fault window;
  /// \p extra accumulates latency-spike delay.
  bool fault_consumes(sim::TimePoint now, sim::Duration& extra);

  Network& net_;
  NetNode* a_;
  NetNode* b_;
  sim::Duration latency_;
  sim::Duration jitter_;
  double loss_rate_;
  sim::Rng& jitter_rng_;
  sim::Rng& loss_rng_;
  sim::Rng& burst_rng_;
  std::uint64_t dropped_{0};
  std::uint64_t flap_dropped_{0};
  std::uint64_t burst_dropped_{0};
  std::vector<FlapWindow> flaps_;
  std::vector<BurstWindow> bursts_;
  std::vector<SpikeWindow> spikes_;
  sim::TimePoint last_delivery_ab_{};
  sim::TimePoint last_delivery_ba_{};
};

}  // namespace vg::net
