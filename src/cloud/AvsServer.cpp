#include "cloud/AvsServer.h"

#include <algorithm>

namespace vg::cloud {

AvsServerApp::AvsServerApp(net::Host& host, Options opts)
    : host_(host), opts_(opts), rng_(host.sim().rng("cloud.avs")) {
  host_.tcp().listen(opts_.port,
                     [this](net::TcpConnection& c) { accept(c); });
}

void AvsServerApp::accept(net::TcpConnection& conn) {
  if (!available_) {
    ++outage_refused_;
    conn.abort();
    return;
  }
  ++sessions_opened_;
  sessions_[&conn] = Session{&conn};
  // Callbacks must be installed inside the accept handler (before SYN-ACK).
  net::TcpCallbacks cbs;
  cbs.on_established = [this] { established_at_.push_back(host_.sim().now()); };
  cbs.on_record = [this, &conn](const net::TlsRecord& r) {
    auto it = sessions_.find(&conn);
    if (it == sessions_.end() || it->second.dead) return;
    on_record(it->second, r);
  };
  cbs.on_closed = [this, &conn](net::TcpCloseReason) { sessions_.erase(&conn); };
  conn.set_callbacks(std::move(cbs));
}

std::optional<sim::TimePoint> AvsServerApp::first_session_since(
    sim::TimePoint t) const {
  const auto it =
      std::lower_bound(established_at_.begin(), established_at_.end(), t);
  if (it == established_at_.end()) return std::nullopt;
  return *it;
}

net::TlsRecord AvsServerApp::make_record(Session& s, std::uint32_t len,
                                         std::string_view tag) {
  net::TlsRecord r;
  r.type = net::TlsContentType::kApplicationData;
  r.length = len;
  r.tls_seq = s.server_seq++;
  r.tag = tag;
  return r;
}

void AvsServerApp::kill_session(Session& s) {
  if (s.dead) return;
  s.dead = true;
  ++sessions_killed_;
  host_.sim().log(sim::LogLevel::kInfo, "avs",
                  "TLS record sequence mismatch -> closing session");
  // A real endpoint sends a fatal bad_record_mac alert, then tears the
  // connection down.
  net::TlsRecord alert;
  alert.type = net::TlsContentType::kAlert;
  alert.length = 26;
  alert.tls_seq = s.server_seq++;
  alert.tag = "alert:bad_record_mac";
  s.conn->send_record(alert);
  net::TcpConnection* conn = s.conn;
  host_.sim().after(sim::milliseconds(2), [conn] { conn->close(); });
}

void AvsServerApp::on_record(Session& s, const net::TlsRecord& r) {
  if (r.tls_seq != s.expected_seq) {
    ++violations_;
    kill_session(s);
    return;
  }
  s.expected_seq = r.tls_seq + 1;

  if (r.tag == "heartbeat") {
    ++heartbeats_;
    s.conn->send_record(make_record(s, 41, "heartbeat-ack"));
    return;
  }
  if (r.tag.starts_with("voice-cmd-end:")) {
    execute_and_respond(s, r.tag);
    return;
  }
  // Activation records, audio chunks, playback telemetry: consumed silently.
}

void AvsServerApp::execute_and_respond(Session& s, std::string_view cmd_tag) {
  executed_.push_back(ExecutedCommand{std::string(cmd_tag), host_.sim().now()});
  sim::Duration delay =
      opts_.process_delay_mean +
      sim::Duration{rng_.uniform_int(-opts_.process_delay_spread.ns(),
                                     opts_.process_delay_spread.ns())};
  if (extra_delay_.ns() > 0) {
    delay = delay + extra_delay_;
    ++browned_out_;
  }
  const int segments = 1 + static_cast<int>(rng_.weighted_index(opts_.segment_weights));

  net::TcpConnection* conn = s.conn;
  host_.sim().after(delay, [this, conn, segments] {
    auto it = sessions_.find(conn);
    if (it == sessions_.end() || it->second.dead) return;
    Session& sess = it->second;
    // Stream the response audio: per segment, a burst of records, the last
    // one marked so the speaker model knows where segment playback ends.
    for (int seg = 0; seg < segments; ++seg) {
      for (int i = 0; i < opts_.response_records_per_segment; ++i) {
        const bool last = (i == opts_.response_records_per_segment - 1);
        const std::string_view tag =
            last ? host_.sim().intern("response-seg-end:" +
                                      std::to_string(seg + 1) + "/" +
                                      std::to_string(segments))
                 : std::string_view{"response-audio"};
        sess.conn->send_record(
            make_record(sess, opts_.response_record_len, tag));
      }
    }
  });
}

void AvsServerApp::set_available(bool available, bool rst_existing) {
  available_ = available;
  if (available_ || !rst_existing) return;
  // Collect then sort by endpoints: sessions_ is keyed by pointer and its
  // iteration order is not reproducible, but abort order affects packet order.
  std::vector<net::TcpConnection*> conns;
  conns.reserve(sessions_.size());
  for (auto& [conn, sess] : sessions_) {
    if (!sess.dead) conns.push_back(conn);
  }
  std::sort(conns.begin(), conns.end(),
            [](const net::TcpConnection* a, const net::TcpConnection* b) {
              if (a->remote() != b->remote()) return a->remote() < b->remote();
              return a->local() < b->local();
            });
  for (auto* conn : conns) {
    ++sessions_killed_;
    conn->abort();
  }
}

void AvsServerApp::close_all_sessions() {
  std::vector<net::TcpConnection*> conns;
  conns.reserve(sessions_.size());
  for (auto& [conn, sess] : sessions_) {
    if (!sess.dead) conns.push_back(conn);
  }
  for (auto* conn : conns) conn->close();
}

GenericTlsServerApp::GenericTlsServerApp(net::Host& host, net::Port port)
    : host_(host) {
  host_.tcp().listen(port, [this](net::TcpConnection& c) {
    ++connections_;
    net::TcpCallbacks cbs;
    cbs.on_record = [&c](const net::TlsRecord& r) {
      // Minimal request/response shape: ack every application record.
      if (r.type == net::TlsContentType::kApplicationData) {
        net::TlsRecord resp;
        resp.type = net::TlsContentType::kApplicationData;
        resp.length = 51;
        resp.tls_seq = r.tls_seq;  // echo numbering; peers here don't verify
        resp.tag = "generic-ack";
        c.send_record(resp);
      }
    };
    c.set_callbacks(std::move(cbs));
  });
}

}  // namespace vg::cloud
