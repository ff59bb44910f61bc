#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/Packet.h"
#include "simcore/Simulation.h"

/// \file Tcp.h
/// A compact but real TCP implementation for the simulator.
///
/// It models everything the Traffic Handler's hold/release/drop semantics
/// depend on: the 3-way handshake, byte-accurate sequence/ACK numbers,
/// retransmission with exponential backoff, keep-alive probes, FIN teardown
/// and RST aborts. Payloads are framed as whole TLS records (one or more per
/// segment), which matches how the paper's signatures are defined and lets a
/// receiving endpoint verify TLS record-sequence continuity.

namespace vg::net {

enum class TcpState {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

std::string to_string(TcpState s);

/// Why a connection ended, as reported to the application.
enum class TcpCloseReason {
  kFin,                // orderly close completed (peer or local FIN)
  kReset,              // peer RST
  kRetransmitTimeout,  // gave up retransmitting
  kKeepaliveTimeout,   // keep-alive probes exhausted
  kLocalAbort,         // local abort()
};

std::string to_string(TcpCloseReason r);

struct TcpCallbacks {
  std::function<void()> on_established;
  /// One call per TLS record, in stream order.
  std::function<void(const TlsRecord&)> on_record;
  std::function<void(TcpCloseReason)> on_closed;
};

struct TcpOptions {
  sim::Duration initial_rto = sim::seconds(1);
  int max_retransmits = 5;
  bool keepalive_enabled = false;
  sim::Duration keepalive_idle = sim::seconds(45);
  sim::Duration keepalive_interval = sim::seconds(10);
  int keepalive_probes = 4;
};

class TcpStack;

/// One endpoint of a TCP connection. Created and owned by a TcpStack.
class TcpConnection {
 public:
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  [[nodiscard]] Endpoint local() const { return local_; }
  [[nodiscard]] Endpoint remote() const { return remote_; }
  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == TcpState::kEstablished; }

  void set_callbacks(TcpCallbacks cbs) { cbs_ = std::move(cbs); }

  /// Sends one segment carrying exactly this record. If the connection is not
  /// yet established the record is queued and flushed on establishment.
  void send_record(TlsRecord r);

  /// Sends one segment carrying all of \p rs (coalesced write).
  void send_records(RecordVec rs);

  /// Convenience overload converting a heap-allocated record vector onto the
  /// connection's arena (test/bench call sites; the hot paths build
  /// RecordVecs directly).
  void send_records(std::vector<TlsRecord> rs);

  /// Orderly close: sends FIN after any queued data.
  void close();

  /// Abortive close: sends RST and reports kLocalAbort. Called from an accept
  /// handler, it refuses the connection: the stack completes the handshake's
  /// SYN-ACK and resets the connection right after it.
  void abort();

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t records_received() const { return records_received_; }
  [[nodiscard]] int retransmit_count() const { return total_retransmits_; }

 private:
  friend class TcpStack;

  TcpConnection(TcpStack& stack, Endpoint local, Endpoint remote,
                TcpOptions opts);

  // --- segment handling -----------------------------------------------------
  void start_connect();
  void start_accept(const Packet& syn);
  /// Takes the segment by value: an in-order payload's records are delivered
  /// from it in place, and an out-of-order segment is moved (not copied) into
  /// the reassembly buffer.
  void handle(Packet p);
  void handle_ack(std::uint32_t ack);
  void handle_payload(Packet p, std::uint32_t len);
  void handle_fin(std::uint32_t seq, std::uint32_t len);
  void deliver_in_order();

  // --- sending --------------------------------------------------------------
  void emit(Packet p, bool track_for_retransmit);
  Packet make_segment(TcpFlags flags) const;
  void send_data_segment(RecordVec rs);
  void send_ack();
  void send_fin();
  void flush_pending();

  // --- timers ---------------------------------------------------------------
  void arm_retransmit_timer();
  void on_retransmit_timer();
  void arm_keepalive_timer();
  void on_keepalive_timer();
  void touch_activity();

  void enter_established();
  void finish(TcpCloseReason reason);
  void enter_time_wait();

  TcpStack& stack_;
  Endpoint local_;
  Endpoint remote_;
  TcpOptions opts_;
  TcpCallbacks cbs_;
  TcpState state_{TcpState::kClosed};

  // Send side.
  std::uint32_t iss_{0};
  std::uint32_t snd_una_{0};
  std::uint32_t snd_nxt_{0};
  bool fin_queued_{false};
  bool fin_sent_{false};
  std::uint32_t fin_seq_{0};
  /// Segments awaiting ACK. Arena-backed: the deque's block churn under
  /// steady-state send/ack cycles must not touch the global allocator.
  std::deque<Packet, sim::ArenaAlloc<Packet>> unacked_;
  std::vector<RecordVec> pending_;  // writes before ESTABLISHED (cold path)

  // Receive side.
  std::uint32_t irs_{0};
  std::uint32_t rcv_nxt_{0};
  std::map<std::uint32_t, Packet, std::less<std::uint32_t>,
           sim::ArenaAlloc<std::pair<const std::uint32_t, Packet>>>
      out_of_order_;

  // Timers.
  sim::EventId retransmit_timer_{};
  bool retransmit_armed_{false};
  sim::Duration current_rto_{};
  int retries_{0};
  int total_retransmits_{0};
  sim::EventId keepalive_timer_{};
  sim::EventId timewait_timer_{};
  bool keepalive_armed_{false};
  int keepalive_probes_sent_{0};
  bool closed_notified_{false};
  bool refused_{false};  // aborted by the accept handler, before start_accept
  sim::TimePoint last_activity_{};

  // Stats.
  std::uint64_t bytes_sent_{0};
  std::uint64_t bytes_received_{0};
  std::uint64_t records_received_{0};
};

/// Demultiplexes TCP packets to connections; owns the connections.
class TcpStack {
 public:
  using PacketOut = std::function<void(Packet)>;
  using AcceptHandler = std::function<void(TcpConnection&)>;

  /// \param out invoked for every outgoing packet (the owner injects it into
  ///        its link).
  /// \param name used in trace logs and RNG stream names.
  TcpStack(sim::Simulation& sim, IpAddress ip, PacketOut out, std::string name);

  /// Accepts connections addressed to (our ip, \p port).
  void listen(Port port, AcceptHandler handler);

  /// Accepts connections addressed to *any* destination endpoint — the
  /// transparent-proxy mode: the guard box answers the speaker's SYN as if it
  /// were the cloud server.
  void listen_transparent(AcceptHandler handler);

  /// Active open from (our ip, ephemeral port).
  TcpConnection& connect(Endpoint remote, TcpCallbacks cbs,
                         const TcpOptions& opts = {});

  /// Active open with an explicit (possibly spoofed) local endpoint — used by
  /// the transparent proxy's WAN side so the cloud server sees the speaker's
  /// own address.
  TcpConnection& connect_from(Endpoint local, Endpoint remote, TcpCallbacks cbs,
                              const TcpOptions& opts = {});

  /// Entry point for packets addressed to this stack. Takes ownership so the
  /// segment's records/tag move down to the owning connection without copies.
  void on_packet(Packet p);

  /// True if a connection keyed by (local=p.dst, remote=p.src) exists — used
  /// by middleboxes to decide "mine vs forward".
  [[nodiscard]] bool owns_flow(const Packet& p) const;

  sim::Simulation& sim() { return sim_; }
  /// The owning simulation's packet arena (null in heap mode).
  [[nodiscard]] sim::Arena* arena() const { return sim_.arena_ptr(); }
  [[nodiscard]] IpAddress ip() const { return ip_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }

 private:
  friend class TcpConnection;

  struct ConnKey {
    Endpoint local;
    Endpoint remote;
    friend bool operator==(const ConnKey&, const ConnKey&) = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      return std::hash<Endpoint>{}(k.local) * 1000003u ^
             std::hash<Endpoint>{}(k.remote);
    }
  };

  void send_packet(Packet p) { out_(std::move(p)); }
  void remove(TcpConnection& c);
  void send_rst_for(const Packet& p);
  Port ephemeral_port() { return next_port_++; }

  sim::Simulation& sim_;
  IpAddress ip_;
  PacketOut out_;
  std::string name_;
  sim::Rng& isn_rng_;  // "<name>.tcp.isn": initial sequence numbers
  std::unordered_map<Port, AcceptHandler> listeners_;
  AcceptHandler transparent_listener_;
  std::unordered_map<ConnKey, std::unique_ptr<TcpConnection>, ConnKeyHash> conns_;
  Port next_port_{49152};
};

}  // namespace vg::net
