#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netsim/Host.h"

/// \file AvsServer.h
/// Model of the Amazon AVS backend ("avs-alexa-4-na.amazon.com").
///
/// Behaviour reproduced from §III-A / §IV-B of the paper:
///  - one long-lived, mutually-authenticated TLS session per speaker;
///  - the server answers heartbeats and executes voice commands received on
///    the session;
///  - TLS record sequence numbers are integrity-protected: if a middlebox
///    drops records, the next record that does arrive fails verification and
///    the server closes the session (Fig. 4, case III);
///  - command execution happens *in the cloud*: a command whose records never
///    reach the server (or arrive after the session died) has no effect.

namespace vg::cloud {

/// Ground-truth record of a command execution on the cloud side.
struct ExecutedCommand {
  std::string command_tag;  // "voice-cmd-end:<id>"
  sim::TimePoint when;
};

class AvsServerApp {
 public:
  struct Options {
    net::Port port{443};
    /// Speech-to-text + skill execution latency before the response audio
    /// starts streaming back.
    sim::Duration process_delay_mean = sim::milliseconds(380);
    sim::Duration process_delay_spread = sim::milliseconds(150);
    /// Response-segment count distribution (Fig. 3's example had 3; Table I
    /// implies ~1.11 on average). Weights for 1, 2, 3 segments.
    std::vector<double> segment_weights{0.90, 0.08, 0.02};
    /// Playback audio chunk sizes for the downstream response.
    std::uint32_t response_record_len{1380};
    int response_records_per_segment{4};
  };

  explicit AvsServerApp(net::Host& host) : AvsServerApp(host, Options{}) {}
  AvsServerApp(net::Host& host, Options opts);

  /// Commands that actually executed (the attack-success ground truth).
  [[nodiscard]] const std::vector<ExecutedCommand>& executed() const {
    return executed_;
  }
  [[nodiscard]] std::uint64_t sequence_violations() const { return violations_; }
  [[nodiscard]] std::uint64_t sessions_opened() const { return sessions_opened_; }
  /// The first instant at or after \p t at which an admitted session
  /// completed its handshake; nullopt if none has. Refused connects never
  /// complete one.
  [[nodiscard]] std::optional<sim::TimePoint> first_session_since(
      sim::TimePoint t) const;
  [[nodiscard]] std::uint64_t sessions_killed() const { return sessions_killed_; }
  [[nodiscard]] std::uint64_t heartbeats_received() const { return heartbeats_; }

  /// Orderly-closes every live session (used when the farm migrates the AVS
  /// domain to a different IP: the old server drains its speakers).
  void close_all_sessions();

  /// Outage control: while unavailable the server refuses (aborts) every new
  /// connection. With \p rst_existing it also resets live sessions on the way
  /// down — the paper's worst case of a backend incident mid-hold. Sessions
  /// are reset in a deterministic (endpoint-sorted) order.
  void set_available(bool available, bool rst_existing = false);
  [[nodiscard]] bool available() const { return available_; }
  [[nodiscard]] std::uint64_t outage_refused() const { return outage_refused_; }

  /// Brownout control: while set, every command processed adds \p extra on
  /// top of the sampled processing delay — the backend is saturated but
  /// still up. Deterministic (no draws added), so a zero brownout is
  /// bit-identical to the seed.
  void set_extra_delay(sim::Duration extra) { extra_delay_ = extra; }
  [[nodiscard]] sim::Duration extra_delay() const { return extra_delay_; }
  [[nodiscard]] std::uint64_t browned_out() const { return browned_out_; }

  net::Host& host() { return host_; }

 private:
  struct Session {
    net::TcpConnection* conn{nullptr};
    std::uint64_t expected_seq{0};
    std::uint64_t server_seq{0};  // our own outgoing record numbering
    bool dead{false};
  };

  void accept(net::TcpConnection& conn);
  void on_record(Session& s, const net::TlsRecord& r);
  void kill_session(Session& s);
  void execute_and_respond(Session& s, std::string_view cmd_tag);
  /// \p tag must be a literal or interned via the simulation's TagPool.
  net::TlsRecord make_record(Session& s, std::uint32_t len,
                             std::string_view tag);

  net::Host& host_;
  Options opts_;
  sim::Rng& rng_;  // "cloud.avs": processing delay, response segments
  std::unordered_map<net::TcpConnection*, Session> sessions_;
  std::vector<ExecutedCommand> executed_;
  std::uint64_t violations_{0};
  std::uint64_t sessions_opened_{0};
  std::vector<sim::TimePoint> established_at_;  // admitted sessions, in order
  std::uint64_t sessions_killed_{0};
  std::uint64_t heartbeats_{0};
  bool available_{true};
  std::uint64_t outage_refused_{0};
  sim::Duration extra_delay_{};
  std::uint64_t browned_out_{0};
};

/// A generic "other Amazon server" endpoint: accepts connections, replies to
/// whatever arrives with small acknowledgments. Exists so the signature
/// matcher has non-AVS connection shapes to discriminate against (§IV-B
/// compares the AVS signature against six other Amazon servers).
class GenericTlsServerApp {
 public:
  GenericTlsServerApp(net::Host& host, net::Port port = 443);

  [[nodiscard]] std::uint64_t connections() const { return connections_; }

 private:
  net::Host& host_;
  std::uint64_t connections_{0};
};

}  // namespace vg::cloud
