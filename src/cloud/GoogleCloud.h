#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/AvsServer.h"  // ExecutedCommand
#include "netsim/Host.h"

/// \file GoogleCloud.h
/// Model of the Google Assistant backend ("www.google.com").
///
/// Differences from AVS reproduced from §IV-B:
///  - connections are *on demand*: a TLS session exists only around an
///    interaction (no standing heartbeat session);
///  - the speaker switches between QUIC (UDP) and TCP depending on network
///    conditions, so the backend serves both;
///  - no upstream response spikes: after the response is downloaded the
///    interaction is over.
/// Like AVS, stream continuity is integrity-protected: a record/packet-number
/// gap kills the session before any later command can execute.

namespace vg::cloud {

class GoogleCloudApp {
 public:
  struct Options {
    net::Port port{443};
    sim::Duration process_delay_mean = sim::milliseconds(420);
    sim::Duration process_delay_spread = sim::milliseconds(160);
    std::uint32_t response_record_len{1250};
    int response_records{5};
    /// QUIC sessions with no traffic for this long are garbage-collected.
    sim::Duration quic_idle_timeout = sim::seconds(30);
  };

  explicit GoogleCloudApp(net::Host& host) : GoogleCloudApp(host, Options{}) {}
  GoogleCloudApp(net::Host& host, Options opts);

  [[nodiscard]] const std::vector<ExecutedCommand>& executed() const {
    return executed_;
  }
  [[nodiscard]] std::uint64_t sequence_violations() const { return violations_; }
  [[nodiscard]] std::uint64_t tcp_sessions() const { return tcp_sessions_; }
  [[nodiscard]] std::uint64_t quic_sessions() const { return quic_sessions_; }

  net::Host& host() { return host_; }

 private:
  struct TcpSession {
    net::TcpConnection* conn{nullptr};
    std::uint64_t expected_seq{0};
    std::uint64_t server_seq{0};
    bool dead{false};
  };
  struct QuicSession {
    net::Endpoint client;
    std::uint64_t expected_seq{0};
    std::uint64_t server_seq{0};
    bool dead{false};
    sim::TimePoint last_activity{};
  };

  void accept_tcp(net::TcpConnection& conn);
  void on_tcp_record(TcpSession& s, const net::TlsRecord& r);
  void on_quic_datagram(const net::Packet& p);
  void respond_tcp(TcpSession& s);
  void respond_quic(QuicSession& s);

  net::Host& host_;
  Options opts_;
  sim::Rng& rng_;  // "cloud.google": processing delay
  std::unordered_map<net::TcpConnection*, TcpSession> tcp_;
  std::unordered_map<net::Endpoint, QuicSession> quic_;
  std::vector<ExecutedCommand> executed_;
  std::uint64_t violations_{0};
  std::uint64_t tcp_sessions_{0};
  std::uint64_t quic_sessions_{0};
};

}  // namespace vg::cloud
