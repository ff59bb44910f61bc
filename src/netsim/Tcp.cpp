#include "netsim/Tcp.h"

#include <stdexcept>

namespace vg::net {

namespace {

/// Wraparound-safe sequence comparison.
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace

std::string to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

std::string to_string(TcpCloseReason r) {
  switch (r) {
    case TcpCloseReason::kFin: return "fin";
    case TcpCloseReason::kReset: return "reset";
    case TcpCloseReason::kRetransmitTimeout: return "retransmit-timeout";
    case TcpCloseReason::kKeepaliveTimeout: return "keepalive-timeout";
    case TcpCloseReason::kLocalAbort: return "local-abort";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TcpConnection
// ---------------------------------------------------------------------------

TcpConnection::TcpConnection(TcpStack& stack, Endpoint local, Endpoint remote,
                             TcpOptions opts)
    : stack_(stack),
      local_(local),
      remote_(remote),
      opts_(opts),
      unacked_(sim::ArenaAlloc<Packet>{stack.arena()}),
      out_of_order_(
          sim::ArenaAlloc<std::pair<const std::uint32_t, Packet>>{stack.arena()}) {
  iss_ = static_cast<std::uint32_t>(stack_.isn_rng_.uniform_int(1000, 500000));
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  last_activity_ = stack_.sim().now();
}

Packet TcpConnection::make_segment(TcpFlags flags) const {
  Packet p{stack_.arena()};
  p.src = local_;
  p.dst = remote_;
  p.protocol = Protocol::kTcp;
  p.tcp.flags = flags;
  p.tcp.seq = snd_nxt_;
  p.tcp.ack = rcv_nxt_;
  return p;
}

void TcpConnection::emit(Packet p, bool track_for_retransmit) {
  bytes_sent_ += p.payload_length();
  touch_activity();
  if (track_for_retransmit) {
    unacked_.push_back(p);
    arm_retransmit_timer();
  }
  stack_.send_packet(std::move(p));
}

void TcpConnection::start_connect() {
  state_ = TcpState::kSynSent;
  Packet syn = make_segment(TcpFlags{}.set(TcpFlag::kSyn));
  snd_nxt_ += 1;  // SYN consumes one sequence number
  emit(std::move(syn), /*track=*/true);
}

void TcpConnection::start_accept(const Packet& syn) {
  irs_ = syn.tcp.seq;
  rcv_nxt_ = irs_ + 1;
  state_ = TcpState::kSynRcvd;
  Packet synack = make_segment(TcpFlags{}.set(TcpFlag::kSyn).set(TcpFlag::kAck));
  snd_nxt_ += 1;
  emit(std::move(synack), /*track=*/true);
}

void TcpConnection::send_record(TlsRecord r) {
  RecordVec v{sim::ArenaAlloc<TlsRecord>{stack_.arena()}};
  v.push_back(std::move(r));
  send_records(std::move(v));
}

void TcpConnection::send_records(RecordVec rs) {
  if (rs.empty()) return;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    send_data_segment(std::move(rs));
  } else if (state_ == TcpState::kSynSent || state_ == TcpState::kSynRcvd ||
             state_ == TcpState::kClosed) {
    pending_.push_back(std::move(rs));
  }
  // Writes after FIN are discarded, as with a real half-closed socket.
}

void TcpConnection::send_records(std::vector<TlsRecord> rs) {
  RecordVec v{sim::ArenaAlloc<TlsRecord>{stack_.arena()}};
  v.reserve(rs.size());
  for (auto& r : rs) v.push_back(std::move(r));
  send_records(std::move(v));
}

void TcpConnection::send_data_segment(RecordVec rs) {
  Packet p = make_segment(TcpFlags{}.set(TcpFlag::kAck).set(TcpFlag::kPsh));
  p.records = std::move(rs);
  snd_nxt_ += p.payload_length();
  emit(std::move(p), /*track=*/true);
}

void TcpConnection::flush_pending() {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& rs : pending) send_data_segment(std::move(rs));
}

void TcpConnection::send_ack() {
  emit(make_segment(TcpFlags{}.set(TcpFlag::kAck)), /*track=*/false);
}

void TcpConnection::send_fin() {
  Packet fin = make_segment(TcpFlags{}.set(TcpFlag::kFin).set(TcpFlag::kAck));
  fin_sent_ = true;
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;
  emit(std::move(fin), /*track=*/true);
}

void TcpConnection::close() {
  switch (state_) {
    case TcpState::kEstablished:
      send_fin();
      state_ = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      send_fin();
      state_ = TcpState::kLastAck;
      break;
    case TcpState::kSynSent:
    case TcpState::kSynRcvd:
    case TcpState::kClosed:
      finish(TcpCloseReason::kLocalAbort);
      break;
    default:
      break;  // close already in progress
  }
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) {
    // Nothing sent yet: an accept handler refusing the connection.
    if (snd_nxt_ == iss_) refused_ = true;
    return;
  }
  Packet rst = make_segment(TcpFlags{}.set(TcpFlag::kRst).set(TcpFlag::kAck));
  emit(std::move(rst), /*track=*/false);
  finish(TcpCloseReason::kLocalAbort);
}

void TcpConnection::handle(Packet p) {
  touch_activity();
  keepalive_probes_sent_ = 0;

  // Header fields and the payload length are captured up front: the segment
  // itself may be moved into the reassembly buffer by handle_payload.
  const TcpFlags flags = p.tcp.flags;
  const std::uint32_t seq = p.tcp.seq;
  const std::uint32_t ack = p.tcp.ack;
  const std::uint32_t len = p.payload_length();

  if (flags.has(TcpFlag::kRst)) {
    finish(TcpCloseReason::kReset);
    return;
  }

  switch (state_) {
    case TcpState::kSynSent:
      if (flags.has(TcpFlag::kSyn) && flags.has(TcpFlag::kAck) &&
          ack == iss_ + 1) {
        irs_ = seq;
        rcv_nxt_ = irs_ + 1;
        snd_una_ = ack;
        unacked_.clear();
        retransmit_armed_ = false;
        stack_.sim().cancel(retransmit_timer_);
        send_ack();
        enter_established();
      }
      return;

    case TcpState::kSynRcvd:
      if (flags.has(TcpFlag::kAck) && seq_le(iss_ + 1, ack)) {
        snd_una_ = ack;
        unacked_.clear();
        retransmit_armed_ = false;
        stack_.sim().cancel(retransmit_timer_);
        enter_established();
        // Fall through to process any piggybacked payload.
        if (len > 0) handle_payload(std::move(p), len);
        if (flags.has(TcpFlag::kFin)) handle_fin(seq, len);
      }
      return;

    case TcpState::kEstablished:
    case TcpState::kFinWait1:
    case TcpState::kFinWait2:
    case TcpState::kCloseWait:
    case TcpState::kLastAck:
    case TcpState::kClosing:
    case TcpState::kTimeWait:
      if (flags.has(TcpFlag::kAck)) handle_ack(ack);
      if (state_ == TcpState::kClosed) return;  // handle_ack may finish()
      if (p.keepalive_probe) {
        send_ack();
        return;
      }
      if (len > 0) handle_payload(std::move(p), len);
      if (flags.has(TcpFlag::kFin)) handle_fin(seq, len);
      return;

    case TcpState::kClosed:
      return;
  }
}

void TcpConnection::handle_ack(std::uint32_t ack) {
  if (!(seq_lt(snd_una_, ack) && seq_le(ack, snd_nxt_))) return;  // stale/dup
  snd_una_ = ack;

  // Drop fully acknowledged segments from the retransmission queue.
  while (!unacked_.empty()) {
    const Packet& seg = unacked_.front();
    std::uint32_t seg_len = seg.payload_length();
    if (seg.tcp.flags.has(TcpFlag::kSyn)) seg_len += 1;
    if (seg.tcp.flags.has(TcpFlag::kFin)) seg_len += 1;
    if (seq_le(seg.tcp.seq + seg_len, snd_una_)) {
      unacked_.pop_front();
    } else {
      break;
    }
  }
  retries_ = 0;
  current_rto_ = opts_.initial_rto;
  stack_.sim().cancel(retransmit_timer_);
  retransmit_armed_ = false;
  if (!unacked_.empty()) arm_retransmit_timer();

  // FIN acknowledgment state transitions.
  if (fin_sent_ && seq_le(fin_seq_ + 1, snd_una_)) {
    switch (state_) {
      case TcpState::kFinWait1:
        state_ = TcpState::kFinWait2;
        break;
      case TcpState::kLastAck:
        finish(TcpCloseReason::kFin);
        break;
      case TcpState::kClosing:
        enter_time_wait();
        break;
      default:
        break;
    }
  }
}

void TcpConnection::handle_payload(Packet p, std::uint32_t len) {
  if (len == 0) return;
  if (p.tcp.seq == rcv_nxt_) {
    rcv_nxt_ += len;
    bytes_received_ += len;
    for (const auto& r : p.records) {
      ++records_received_;
      if (cbs_.on_record) cbs_.on_record(r);
      if (state_ == TcpState::kClosed) return;  // app closed us mid-delivery
    }
    deliver_in_order();
    send_ack();
  } else if (seq_lt(rcv_nxt_, p.tcp.seq)) {
    const std::uint32_t seq = p.tcp.seq;
    out_of_order_.emplace(seq, std::move(p));
    send_ack();  // duplicate ACK signalling the gap
  } else {
    send_ack();  // old retransmission
  }
}

void TcpConnection::deliver_in_order() {
  auto it = out_of_order_.find(rcv_nxt_);
  while (it != out_of_order_.end()) {
    const Packet& p = it->second;
    const std::uint32_t len = p.payload_length();
    rcv_nxt_ += len;
    bytes_received_ += len;
    for (const auto& r : p.records) {
      ++records_received_;
      if (cbs_.on_record) cbs_.on_record(r);
      if (state_ == TcpState::kClosed) return;
    }
    out_of_order_.erase(it);
    it = out_of_order_.find(rcv_nxt_);
  }
}

void TcpConnection::handle_fin(std::uint32_t seq, std::uint32_t len) {
  const std::uint32_t fin_seq = seq + len;
  if (fin_seq != rcv_nxt_) return;  // FIN not yet in order
  rcv_nxt_ += 1;
  send_ack();
  switch (state_) {
    case TcpState::kEstablished:
      // Passive close; we respond with our own FIN right away (no app-level
      // half-close consumers in this system).
      state_ = TcpState::kCloseWait;
      send_fin();
      state_ = TcpState::kLastAck;
      break;
    case TcpState::kFinWait1:
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    default:
      break;
  }
}

void TcpConnection::enter_established() {
  state_ = TcpState::kEstablished;
  arm_keepalive_timer();
  if (cbs_.on_established) cbs_.on_established();
  flush_pending();
}

void TcpConnection::enter_time_wait() {
  if (state_ == TcpState::kTimeWait || state_ == TcpState::kClosed) return;
  state_ = TcpState::kTimeWait;
  stack_.sim().cancel(retransmit_timer_);
  stack_.sim().cancel(keepalive_timer_);
  retransmit_armed_ = false;
  keepalive_armed_ = false;
  if (cbs_.on_closed && !closed_notified_) {
    closed_notified_ = true;
    cbs_.on_closed(TcpCloseReason::kFin);
  }
  // Short TIME_WAIT: long enough to absorb stray segments in the sim.
  timewait_timer_ = stack_.sim().after(sim::seconds(1), [this] {
    state_ = TcpState::kClosed;
    stack_.remove(*this);
  });
}

void TcpConnection::finish(TcpCloseReason reason) {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  stack_.sim().cancel(retransmit_timer_);
  stack_.sim().cancel(keepalive_timer_);
  stack_.sim().cancel(timewait_timer_);
  retransmit_armed_ = false;
  keepalive_armed_ = false;
  if (cbs_.on_closed && !closed_notified_) {
    closed_notified_ = true;
    cbs_.on_closed(reason);
  }
  stack_.sim().after(sim::Duration{0}, [this] { stack_.remove(*this); });
}

// --- timers -----------------------------------------------------------------

void TcpConnection::arm_retransmit_timer() {
  if (retransmit_armed_) return;
  if (current_rto_.ns() == 0) current_rto_ = opts_.initial_rto;
  retransmit_armed_ = true;
  retransmit_timer_ = stack_.sim().after(current_rto_, [this] {
    retransmit_armed_ = false;
    on_retransmit_timer();
  });
}

void TcpConnection::on_retransmit_timer() {
  if (state_ == TcpState::kClosed || unacked_.empty()) return;
  ++retries_;
  ++total_retransmits_;
  if (retries_ > opts_.max_retransmits) {
    finish(TcpCloseReason::kRetransmitTimeout);
    return;
  }
  Packet again = unacked_.front();
  again.id = 0;  // fresh wire id for the retransmitted copy
  stack_.send_packet(std::move(again));
  current_rto_ = current_rto_ * 2;
  arm_retransmit_timer();
}

void TcpConnection::arm_keepalive_timer() {
  if (!opts_.keepalive_enabled || keepalive_armed_) return;
  keepalive_armed_ = true;
  keepalive_timer_ = stack_.sim().after(opts_.keepalive_idle, [this] {
    keepalive_armed_ = false;
    on_keepalive_timer();
  });
}

void TcpConnection::on_keepalive_timer() {
  if (state_ != TcpState::kEstablished) return;
  const sim::Duration idle = stack_.sim().now() - last_activity_;
  if (idle < opts_.keepalive_idle && keepalive_probes_sent_ == 0) {
    // Activity happened since arming; re-arm relative to it.
    keepalive_armed_ = true;
    keepalive_timer_ = stack_.sim().after(opts_.keepalive_idle - idle, [this] {
      keepalive_armed_ = false;
      on_keepalive_timer();
    });
    return;
  }
  if (keepalive_probes_sent_ >= opts_.keepalive_probes) {
    finish(TcpCloseReason::kKeepaliveTimeout);
    return;
  }
  Packet probe = make_segment(TcpFlags{}.set(TcpFlag::kAck));
  probe.tcp.seq = snd_nxt_ - 1;  // classic keep-alive probe shape
  probe.keepalive_probe = true;
  ++keepalive_probes_sent_;
  stack_.send_packet(std::move(probe));
  keepalive_armed_ = true;
  keepalive_timer_ = stack_.sim().after(opts_.keepalive_interval, [this] {
    keepalive_armed_ = false;
    on_keepalive_timer();
  });
}

void TcpConnection::touch_activity() { last_activity_ = stack_.sim().now(); }

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(sim::Simulation& sim, IpAddress ip, PacketOut out,
                   std::string name)
    : sim_(sim),
      ip_(ip),
      out_(std::move(out)),
      name_(std::move(name)),
      isn_rng_(sim.rng(name_ + ".tcp.isn")) {}

void TcpStack::listen(Port port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

void TcpStack::listen_transparent(AcceptHandler handler) {
  transparent_listener_ = std::move(handler);
}

TcpConnection& TcpStack::connect(Endpoint remote, TcpCallbacks cbs,
                                 const TcpOptions& opts) {
  return connect_from(Endpoint{ip_, ephemeral_port()}, remote, std::move(cbs),
                      opts);
}

TcpConnection& TcpStack::connect_from(Endpoint local, Endpoint remote,
                                      TcpCallbacks cbs, const TcpOptions& opts) {
  ConnKey key{local, remote};
  if (conns_.contains(key)) {
    throw std::logic_error{"TcpStack::connect_from: connection already exists"};
  }
  auto conn = std::unique_ptr<TcpConnection>(
      new TcpConnection(*this, local, remote, opts));
  conn->set_callbacks(std::move(cbs));
  TcpConnection& ref = *conn;
  conns_.emplace(key, std::move(conn));
  ref.start_connect();
  return ref;
}

bool TcpStack::owns_flow(const Packet& p) const {
  return conns_.contains(ConnKey{p.dst, p.src});
}

void TcpStack::on_packet(Packet p) {
  ConnKey key{p.dst, p.src};
  auto it = conns_.find(key);
  if (it != conns_.end()) {
    it->second->handle(std::move(p));
    return;
  }

  const bool is_syn = p.tcp.flags.has(TcpFlag::kSyn) && !p.tcp.flags.has(TcpFlag::kAck);
  if (is_syn) {
    AcceptHandler* handler = nullptr;
    auto lit = listeners_.find(p.dst.port);
    if (lit != listeners_.end()) {
      handler = &lit->second;
    } else if (transparent_listener_) {
      handler = &transparent_listener_;
    }
    if (handler != nullptr) {
      auto conn = std::unique_ptr<TcpConnection>(
          new TcpConnection(*this, /*local=*/p.dst, /*remote=*/p.src, TcpOptions{}));
      TcpConnection& ref = *conn;
      conns_.emplace(key, std::move(conn));
      (*handler)(ref);  // application installs callbacks/options here
      ref.start_accept(p);
      if (ref.refused_) ref.abort();
      return;
    }
  }
  if (!p.tcp.flags.has(TcpFlag::kRst)) send_rst_for(p);
}

void TcpStack::send_rst_for(const Packet& p) {
  Packet rst{arena()};
  rst.src = p.dst;
  rst.dst = p.src;
  rst.protocol = Protocol::kTcp;
  rst.tcp.flags.set(TcpFlag::kRst).set(TcpFlag::kAck);
  rst.tcp.seq = p.tcp.ack;
  std::uint32_t adv = p.payload_length();
  if (p.tcp.flags.has(TcpFlag::kSyn)) adv += 1;
  if (p.tcp.flags.has(TcpFlag::kFin)) adv += 1;
  rst.tcp.ack = p.tcp.seq + adv;
  send_packet(std::move(rst));
}

void TcpStack::remove(TcpConnection& c) {
  conns_.erase(ConnKey{c.local(), c.remote()});
}

}  // namespace vg::net
