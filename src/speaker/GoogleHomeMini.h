#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "netsim/Dns.h"
#include "netsim/Host.h"
#include "speaker/Command.h"

/// \file GoogleHomeMini.h
/// Traffic model of a Google Home Mini.
///
/// Observable behaviour reproduced from §IV-B:
///  - *on-demand* connections: a session to "www.google.com" exists only
///    around an interaction, so any spike after idle is a command;
///  - transport switches between QUIC (UDP) and TCP with network conditions;
///  - the voice connection is identifiable by DNS (no signature needed);
///  - no upstream response spikes.

namespace vg::speaker {

class GoogleHomeMiniModel {
 public:
  struct Options {
    std::string domain = "www.google.com";
    net::Port port{443};
    double quic_probability = 0.7;
    sim::Duration response_timeout = sim::seconds(40);
    /// The session lingers briefly after the response, then closes.
    sim::Duration linger = sim::seconds(3);
  };

  GoogleHomeMiniModel(net::Host& host, net::Endpoint dns_server)
      : GoogleHomeMiniModel(host, dns_server, Options{}) {}
  GoogleHomeMiniModel(net::Host& host, net::Endpoint dns_server, Options opts);

  /// Nothing persistent to boot; kept for interface symmetry.
  void power_on() { powered_ = true; }

  void hear_command(const CommandSpec& cmd);

  [[nodiscard]] const std::vector<InteractionResult>& interactions() const {
    return interactions_;
  }
  [[nodiscard]] std::uint64_t quic_interactions() const { return quic_count_; }
  [[nodiscard]] std::uint64_t tcp_interactions() const { return tcp_count_; }

  net::Host& host() { return host_; }

  std::function<void(const InteractionResult&)> on_interaction_done;

 private:
  struct PendingInteraction {
    CommandSpec cmd;
    sim::TimePoint wake_time;
    sim::TimePoint command_end;
    std::optional<sim::TimePoint> response_start;
    bool via_quic{false};
    net::TcpConnection* conn{nullptr};
    net::Port quic_local_port{0};
    std::uint64_t send_seq{0};
    sim::EventId timeout_timer{};
  };

  void start_interaction(const CommandSpec& cmd, sim::TimePoint wake,
                         net::IpAddress server_ip);
  void run_tcp(net::IpAddress server_ip);
  void run_quic(net::IpAddress server_ip);
  void stream_command_tcp(std::uint64_t igen);
  void stream_command_quic(std::uint64_t igen, net::IpAddress server_ip);
  void on_response_start();
  void finish_interaction(bool response_received, bool connection_error,
                          bool timed_out);

  net::Host& host_;
  net::DnsClient dns_;
  Options opts_;
  sim::Rng& rng_;           // "speaker.ghm": QUIC vs TCP per interaction
  sim::Rng& traffic_rng_;   // "speaker.ghm.traffic": record lengths and gaps
  sim::Rng& playback_rng_;  // "speaker.ghm.playback": answer lengths
  std::optional<PendingInteraction> pending_;
  std::uint64_t interaction_gen_{0};
  std::vector<InteractionResult> interactions_;
  std::uint64_t quic_count_{0};
  std::uint64_t tcp_count_{0};
  bool powered_{false};
};

}  // namespace vg::speaker
