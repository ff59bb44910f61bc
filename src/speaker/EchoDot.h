#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/Dns.h"
#include "netsim/Host.h"
#include "speaker/Command.h"
#include "speaker/TrafficPatterns.h"

/// \file EchoDot.h
/// Traffic model of an Amazon Echo Dot.
///
/// Observable behaviour reproduced from §IV-B:
///  - boots by resolving the AVS domain, connecting, and emitting the fixed
///    16-packet establishment signature;
///  - heartbeats: one 41-byte record every 30 s on the long-lived session;
///  - reconnects when the server closes the session — sometimes *without* a
///    visible DNS query (the case that forces signature-based IP tracking);
///  - a command produces the two-phase interaction of Fig. 3: activation
///    spike + small packets + audio spike (phase 1), then, per response
///    segment spoken, one upstream telemetry spike (phase 2);
///  - occasional short-lived connections to other Amazon servers.

namespace vg::speaker {

class EchoDotModel {
 public:
  struct Options {
    std::string avs_domain = "avs-alexa-4-na.amazon.com";
    net::Port avs_port{443};
    sim::Duration heartbeat_interval = sim::seconds(30);
    std::uint32_t heartbeat_len{41};
    /// Client-side patience for the cloud's response. Per the phantom-delay
    /// findings the paper leans on ([28], [34]), smart-speaker sessions
    /// tolerate dozens of seconds of delay without alarm.
    sim::Duration response_timeout = sim::seconds(40);
    /// Probability a reconnect is preceded by an observable DNS query.
    double dns_on_reconnect_prob = 0.55;
    /// The packet-length sequence emitted right after connecting to the AVS
    /// server. Defaults to the measured signature; tests override it to
    /// emulate a firmware update changing the establishment shape (§VII).
    std::vector<std::uint32_t> establishment_signature =
        kAvsConnectionSignature;
    sim::Duration reconnect_delay_min = sim::milliseconds(400);
    sim::Duration reconnect_delay_max = sim::milliseconds(1600);
    /// Exponential reconnect backoff: after each consecutive failed
    /// re-establishment the jittered [min,max] reconnect window is scaled by
    /// another factor of reconnect_backoff_factor, capped at
    /// reconnect_backoff_cap; a successful establishment resets the streak.
    /// The factor 1.0 default is byte-identical to the seed behavior (same
    /// draws, same waits); fleet fault plans opt in so a region-wide
    /// recovery does not become a thundering herd.
    double reconnect_backoff_factor = 1.0;
    sim::Duration reconnect_backoff_cap = sim::seconds(60);
    /// A session must stay up this long before a later close counts as a
    /// fresh failure (streak reset). A shorter-lived establishment — the
    /// cloud admits the TCP handshake, then refuses the session with an
    /// immediate RST during a capacity crunch — keeps the streak building,
    /// so refusal loops still back off.
    sim::Duration reconnect_settle = sim::seconds(5);
    /// Fast-retry budget: reconnect attempts beyond this many in one failure
    /// streak skip straight to the full backoff cap (slow polling) instead
    /// of the scaled window. 0 = unbounded.
    int reconnect_budget = 0;
    /// TCP keep-alive knobs for the long-lived AVS session. Defaults match
    /// the previous hardcoded values (probes/interval are the TcpOptions
    /// defaults); the chaos tests tighten them to force probes during a hold.
    bool keepalive = true;
    sim::Duration keepalive_idle = sim::seconds(50);
    sim::Duration keepalive_interval = sim::seconds(10);
    int keepalive_probes = 4;
    Phase1Options phase1;
    /// Playback length of one response segment ("one NBA game schedule").
    sim::Duration segment_playback_min = sim::seconds(2);
    sim::Duration segment_playback_max = sim::seconds(6);
    /// Mean interval between short-lived misc-Amazon connections; 0 disables.
    sim::Duration misc_connection_mean = sim::minutes(25);
  };

  /// \param avs_ip_oracle how the speaker learns the current AVS IP when it
  ///        reconnects without DNS (Amazon-internal discovery the prototype
  ///        could not observe; see DESIGN.md substitutions).
  EchoDotModel(net::Host& host, net::Endpoint dns_server,
               std::function<net::IpAddress()> avs_ip_oracle)
      : EchoDotModel(host, dns_server, std::move(avs_ip_oracle), Options{}) {}
  EchoDotModel(net::Host& host, net::Endpoint dns_server,
               std::function<net::IpAddress()> avs_ip_oracle, Options opts);

  /// Boots the speaker: DNS, connect, signature, heartbeats.
  void power_on();

  /// The speaker hears (wake word + command). Streaming starts once the wake
  /// word is recognized, ~0.6 s into the utterance.
  void hear_command(const CommandSpec& cmd);

  [[nodiscard]] bool connected() const { return conn_ != nullptr && conn_->established(); }
  [[nodiscard]] net::IpAddress current_avs_ip() const { return avs_ip_; }
  [[nodiscard]] const std::vector<InteractionResult>& interactions() const {
    return interactions_;
  }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
  [[nodiscard]] std::uint64_t dnsless_reconnects() const { return dnsless_reconnects_; }
  /// Instant of the most recent successful session establishment (the fleet
  /// recovery probe); the zero TimePoint until the first one.
  [[nodiscard]] sim::TimePoint last_established_at() const {
    return last_established_at_;
  }
  /// Connections that ended in a reset or a timeout rather than an orderly
  /// FIN, failed connects included (the fleet recovery probe).
  [[nodiscard]] std::uint64_t connections_lost() const { return connections_lost_; }
  /// Consecutive failed re-establishments so far (resets on success).
  [[nodiscard]] int reconnect_streak() const { return reconnect_streak_; }

  net::Host& host() { return host_; }

  /// Fires when an interaction finishes (successfully or not).
  std::function<void(const InteractionResult&)> on_interaction_done;

 private:
  struct PendingInteraction {
    CommandSpec cmd;
    sim::TimePoint wake_time;
    sim::TimePoint command_end;
    std::optional<sim::TimePoint> response_start;
    int segments_expected{0};
    int segments_played{0};
    sim::EventId timeout_timer{};
  };

  void resolve_and_connect(bool allow_dnsless);
  void connect_to(net::IpAddress ip);
  void on_connected(std::uint64_t gen);
  void on_connection_closed(net::TcpCloseReason reason);
  /// Sends a record iff the connection generation still matches — scheduled
  /// sends from a dead connection must not leak onto its successor (they
  /// would corrupt the fresh TLS sequence space). \p tag must be a literal or
  /// interned via the simulation's TagPool so it outlives the record.
  void send_record(std::uint64_t gen, std::uint32_t len, std::string_view tag,
                   net::TlsContentType type = net::TlsContentType::kApplicationData);
  void schedule_heartbeat();
  void schedule_misc_connection();
  void on_server_record(const net::TlsRecord& r);
  void start_phase1(const CommandSpec& cmd, sim::TimePoint wake_time);
  void emit_phase2_spike();
  void segment_done(std::uint64_t interaction_gen);
  void finish_interaction(bool response_received, bool connection_error,
                          bool timed_out);

  net::Host& host_;
  net::DnsClient dns_;
  std::function<net::IpAddress()> avs_ip_oracle_;
  Options opts_;
  sim::Rng& rng_;           // "speaker.echo": DNS-less reconnects, reconnect waits
  sim::Rng& misc_rng_;      // "speaker.echo.misc": side connections
  sim::Rng& traffic_rng_;   // "speaker.echo.traffic": record lengths and gaps
  sim::Rng& playback_rng_;  // "speaker.echo.playback": response segment lengths

  net::TcpConnection* conn_{nullptr};
  net::IpAddress avs_ip_{};
  std::uint64_t tls_seq_{0};
  std::uint64_t conn_gen_{0};
  std::uint64_t interaction_gen_{0};
  sim::EventId heartbeat_timer_{};
  std::optional<PendingInteraction> pending_;
  std::vector<InteractionResult> interactions_;
  std::uint64_t reconnects_{0};
  std::uint64_t dnsless_reconnects_{0};
  std::uint64_t connections_lost_{0};
  sim::TimePoint last_established_at_{};
  int reconnect_streak_{0};
  bool powered_{false};
};

}  // namespace vg::speaker
