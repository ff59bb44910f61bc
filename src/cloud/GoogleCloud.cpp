#include "cloud/GoogleCloud.h"

namespace vg::cloud {

GoogleCloudApp::GoogleCloudApp(net::Host& host, Options opts)
    : host_(host), opts_(opts), rng_(host.sim().rng("cloud.google")) {
  host_.tcp().listen(opts_.port,
                     [this](net::TcpConnection& c) { accept_tcp(c); });
  host_.udp().bind(opts_.port,
                   [this](const net::Packet& p) { on_quic_datagram(p); });
}

void GoogleCloudApp::accept_tcp(net::TcpConnection& conn) {
  ++tcp_sessions_;
  tcp_[&conn] = TcpSession{&conn};
  net::TcpCallbacks cbs;
  cbs.on_record = [this, &conn](const net::TlsRecord& r) {
    auto it = tcp_.find(&conn);
    if (it == tcp_.end() || it->second.dead) return;
    on_tcp_record(it->second, r);
  };
  cbs.on_closed = [this, &conn](net::TcpCloseReason) { tcp_.erase(&conn); };
  conn.set_callbacks(std::move(cbs));
}

void GoogleCloudApp::on_tcp_record(TcpSession& s, const net::TlsRecord& r) {
  if (r.tls_seq != s.expected_seq) {
    ++violations_;
    s.dead = true;
    host_.sim().log(sim::LogLevel::kInfo, "google-cloud",
                    "TCP stream record gap -> closing session");
    net::TcpConnection* conn = s.conn;
    host_.sim().after(sim::milliseconds(2), [conn] { conn->abort(); });
    return;
  }
  s.expected_seq = r.tls_seq + 1;
  if (r.tag.starts_with("voice-cmd-end:")) {
    executed_.push_back(ExecutedCommand{std::string(r.tag), host_.sim().now()});
    respond_tcp(s);
  }
}

void GoogleCloudApp::respond_tcp(TcpSession& s) {
  const sim::Duration delay =
      opts_.process_delay_mean +
      sim::Duration{rng_.uniform_int(-opts_.process_delay_spread.ns(),
                                     opts_.process_delay_spread.ns())};
  net::TcpConnection* conn = s.conn;
  host_.sim().after(delay, [this, conn] {
    auto it = tcp_.find(conn);
    if (it == tcp_.end() || it->second.dead) return;
    TcpSession& sess = it->second;
    for (int i = 0; i < opts_.response_records; ++i) {
      net::TlsRecord r;
      r.type = net::TlsContentType::kApplicationData;
      r.length = opts_.response_record_len;
      r.tls_seq = sess.server_seq++;
      r.tag = (i == opts_.response_records - 1) ? "response-end" : "response-audio";
      sess.conn->send_record(r);
    }
  });
}

void GoogleCloudApp::on_quic_datagram(const net::Packet& p) {
  if (!p.quic) return;
  auto [it, inserted] = quic_.try_emplace(p.src, QuicSession{p.src});
  QuicSession& s = it->second;
  if (inserted) {
    ++quic_sessions_;
  } else if (s.dead) {
    return;
  } else if (host_.sim().now() - s.last_activity > opts_.quic_idle_timeout) {
    // Stale session: treat this as a fresh connection attempt.
    s = QuicSession{p.src};
  }
  s.last_activity = host_.sim().now();

  for (const auto& r : p.records) {
    if (r.tls_seq != s.expected_seq) {
      ++violations_;
      s.dead = true;
      host_.sim().log(sim::LogLevel::kInfo, "google-cloud",
                      "QUIC packet-number gap -> connection close");
      net::TlsRecord close;
      close.type = net::TlsContentType::kAlert;
      close.length = 33;
      close.tls_seq = s.server_seq++;
      close.tag = "quic-connection-close";
      host_.udp().send_quic(net::Endpoint{host_.ip(), opts_.port}, s.client,
                            {close});
      return;
    }
    s.expected_seq = r.tls_seq + 1;
    if (r.tag.starts_with("voice-cmd-end:")) {
      executed_.push_back(
          ExecutedCommand{std::string(r.tag), host_.sim().now()});
      respond_quic(s);
    }
  }
}

void GoogleCloudApp::respond_quic(QuicSession& s) {
  const sim::Duration delay =
      opts_.process_delay_mean +
      sim::Duration{rng_.uniform_int(-opts_.process_delay_spread.ns(),
                                     opts_.process_delay_spread.ns())};
  const net::Endpoint client = s.client;
  host_.sim().after(delay, [this, client] {
    auto it = quic_.find(client);
    if (it == quic_.end() || it->second.dead) return;
    QuicSession& sess = it->second;
    std::vector<net::TlsRecord> records;
    for (int i = 0; i < opts_.response_records; ++i) {
      net::TlsRecord r;
      r.type = net::TlsContentType::kApplicationData;
      r.length = opts_.response_record_len;
      r.tls_seq = sess.server_seq++;
      r.tag = (i == opts_.response_records - 1) ? "response-end" : "response-audio";
      records.push_back(std::move(r));
    }
    // Each record in its own datagram, as QUIC would packetize audio chunks.
    for (auto& r : records) {
      host_.udp().send_quic(net::Endpoint{host_.ip(), opts_.port}, client,
                            {std::move(r)});
    }
  });
}

}  // namespace vg::cloud
