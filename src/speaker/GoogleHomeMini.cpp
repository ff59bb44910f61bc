#include "speaker/GoogleHomeMini.h"

#include <algorithm>

namespace vg::speaker {

GoogleHomeMiniModel::GoogleHomeMiniModel(net::Host& host,
                                         net::Endpoint dns_server, Options opts)
    : host_(host),
      dns_(host, dns_server),
      opts_(std::move(opts)),
      rng_(host.sim().rng("speaker.ghm")),
      traffic_rng_(host.sim().rng("speaker.ghm.traffic")),
      playback_rng_(host.sim().rng("speaker.ghm.playback")) {}

void GoogleHomeMiniModel::hear_command(const CommandSpec& cmd) {
  if (!powered_ || pending_) return;
  const sim::TimePoint wake =
      host_.sim().now() + sim::from_seconds(CommandSpec::kWakeWordSeconds);
  host_.sim().at(wake, [this, cmd, wake] {
    if (pending_) return;
    // On-demand: every interaction starts with a fresh DNS resolution —
    // which is exactly why DNS tracking suffices for the Mini (§IV-B).
    dns_.resolve(opts_.domain,
                 [this, cmd, wake](const net::AddrVec& ips) {
                   if (ips.empty() || pending_) return;
                   start_interaction(cmd, wake, ips.front());
                 });
  });
}

void GoogleHomeMiniModel::start_interaction(const CommandSpec& cmd,
                                            sim::TimePoint wake,
                                            net::IpAddress server_ip) {
  pending_ = PendingInteraction{};
  pending_->cmd = cmd;
  pending_->wake_time = wake;
  pending_->via_quic = rng_.chance(opts_.quic_probability);
  ++interaction_gen_;

  // The command upload completes just after the user stops speaking.
  pending_->command_end =
      wake - sim::from_seconds(CommandSpec::kWakeWordSeconds) +
      cmd.speech_duration() + sim::milliseconds(150);

  if (pending_->via_quic) {
    ++quic_count_;
    run_quic(server_ip);
  } else {
    ++tcp_count_;
    run_tcp(server_ip);
  }

  // DNS can resolve arbitrarily late under cloud/latency faults, so the
  // patience window may already be over by the time the interaction starts;
  // never schedule the timeout into the past.
  pending_->timeout_timer = host_.sim().at(
      std::max(pending_->command_end + opts_.response_timeout,
               host_.sim().now()),
      [this] {
        if (pending_ && !pending_->response_start) {
          finish_interaction(false, false, /*timed_out=*/true);
        }
      });
}

void GoogleHomeMiniModel::run_tcp(net::IpAddress server_ip) {
  const std::uint64_t igen = interaction_gen_;
  // Tracks whether the connection object is still alive; deferred lambdas
  // must not touch a freed TcpConnection.
  auto alive = std::make_shared<bool>(true);
  net::TcpCallbacks cbs;
  cbs.on_established = [this, igen] {
    if (pending_ && igen == interaction_gen_) stream_command_tcp(igen);
  };
  cbs.on_record = [this, igen, alive](const net::TlsRecord& r) {
    if (!pending_ || igen != interaction_gen_) return;
    if (r.tag.starts_with("response")) {
      if (!pending_->response_start) on_response_start();
      if (r.tag == "response-end") {
        // Speak the answer, then the interaction is over.
        const sim::Duration playback{playback_rng_.uniform_int(
            sim::seconds(2).ns(), sim::seconds(5).ns())};
        net::TcpConnection* conn = pending_->conn;
        host_.sim().after(playback, [this, igen, conn, alive] {
          if (!pending_ || igen != interaction_gen_) return;
          finish_interaction(true, false, false);
          host_.sim().after(opts_.linger, [conn, alive] {
            if (*alive && conn->state() == net::TcpState::kEstablished) {
              conn->close();
            }
          });
        });
      }
    }
  };
  cbs.on_closed = [this, igen, alive](net::TcpCloseReason reason) {
    *alive = false;
    if (!pending_ || igen != interaction_gen_) return;
    if (reason == net::TcpCloseReason::kFin) return;  // orderly wind-down
    finish_interaction(false, /*connection_error=*/true, false);
  };
  pending_->conn = &host_.tcp().connect(net::Endpoint{server_ip, opts_.port},
                                        std::move(cbs));
}

void GoogleHomeMiniModel::stream_command_tcp(std::uint64_t igen) {
  sim::Rng& rng = traffic_rng_;
  auto send = [this, igen](std::uint32_t len, std::string_view tag) {
    if (!pending_ || igen != interaction_gen_ || pending_->conn == nullptr) return;
    net::TlsRecord r;
    r.length = len;
    r.tls_seq = pending_->send_seq++;
    r.tag = tag;
    pending_->conn->send_record(std::move(r));
  };

  // Session setup burst.
  sim::Duration t{0};
  const int setup = static_cast<int>(rng.uniform_int(3, 5));
  for (int i = 0; i < setup; ++i) {
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(280, 950));
    host_.sim().after(t, [send, len] { send(len, "setup"); });
    t += sim::milliseconds(12);
  }

  // Streaming meta while the user speaks, then the audio burst.
  const sim::TimePoint speech_end =
      pending_->command_end - sim::milliseconds(150);
  sim::TimePoint cursor = host_.sim().now() + t + sim::milliseconds(150);
  while (cursor < speech_end) {
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(90, 240));
    host_.sim().at(cursor, [send, len] { send(len, "stream-meta"); });
    cursor = cursor + sim::milliseconds(rng.uniform_int(300, 700));
  }

  const int audio_records = std::clamp(
      static_cast<int>(pending_->cmd.speech_duration().seconds() * 4.0), 6, 40);
  // Establishment can outlast the speech under link faults; the buffered
  // audio then flushes as soon as the connection is up instead of being
  // scheduled into the past.
  sim::TimePoint at = std::max(speech_end, host_.sim().now());
  for (int i = 0; i < audio_records; ++i) {
    const bool last = (i == audio_records - 1);
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(1100, 1380));
    const std::string_view tag =
        last ? host_.sim().intern(pending_->cmd.end_tag())
             : std::string_view{"voice-audio"};
    host_.sim().at(at, [send, len, tag] { send(len, tag); });
    at = at + sim::milliseconds(8);
  }
}

void GoogleHomeMiniModel::run_quic(net::IpAddress server_ip) {
  const std::uint64_t igen = interaction_gen_;
  pending_->quic_local_port = host_.udp().ephemeral_port();
  host_.udp().bind(pending_->quic_local_port, [this, igen](const net::Packet& p) {
    if (!pending_ || igen != interaction_gen_ || !p.quic) return;
    for (const auto& r : p.records) {
      if (r.tag == "quic-connection-close") {
        finish_interaction(false, /*connection_error=*/true, false);
        return;
      }
      if (r.tag.starts_with("response")) {
        if (!pending_->response_start) on_response_start();
        if (r.tag == "response-end") {
          const sim::Duration playback{playback_rng_.uniform_int(
              sim::seconds(2).ns(), sim::seconds(5).ns())};
          host_.sim().after(playback, [this, igen] {
            if (!pending_ || igen != interaction_gen_) return;
            finish_interaction(true, false, false);
          });
        }
      }
    }
  });
  stream_command_quic(igen, server_ip);
}

void GoogleHomeMiniModel::stream_command_quic(std::uint64_t igen,
                                              net::IpAddress server_ip) {
  sim::Rng& rng = traffic_rng_;
  const net::Endpoint local{host_.ip(), pending_->quic_local_port};
  const net::Endpoint remote{server_ip, opts_.port};
  auto send = [this, igen, local, remote](std::uint32_t len, std::string_view tag) {
    if (!pending_ || igen != interaction_gen_) return;
    net::TlsRecord r;
    r.length = len;
    r.tls_seq = pending_->send_seq++;
    r.tag = tag;
    net::RecordVec rs = host_.sim().make_vec<net::TlsRecord>();
    rs.push_back(std::move(r));
    host_.udp().send_quic(local, remote, std::move(rs));
  };

  sim::Duration t{0};
  const int setup = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < setup; ++i) {
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(350, 1200));
    host_.sim().after(t, [send, len] { send(len, "quic-setup"); });
    t += sim::milliseconds(10);
  }

  const sim::TimePoint speech_end =
      pending_->command_end - sim::milliseconds(150);
  sim::TimePoint cursor = host_.sim().now() + t + sim::milliseconds(150);
  while (cursor < speech_end) {
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(90, 240));
    host_.sim().at(cursor, [send, len] { send(len, "stream-meta"); });
    cursor = cursor + sim::milliseconds(rng.uniform_int(300, 700));
  }

  const int audio_records = std::clamp(
      static_cast<int>(pending_->cmd.speech_duration().seconds() * 4.0), 6, 40);
  // Same late-establishment clamp as the TCP path.
  sim::TimePoint at = std::max(speech_end, host_.sim().now());
  for (int i = 0; i < audio_records; ++i) {
    const bool last = (i == audio_records - 1);
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(1000, 1350));
    const std::string_view tag =
        last ? host_.sim().intern(pending_->cmd.end_tag())
             : std::string_view{"voice-audio"};
    host_.sim().at(at, [send, len, tag] { send(len, tag); });
    at = at + sim::milliseconds(9);
  }
}

void GoogleHomeMiniModel::on_response_start() {
  pending_->response_start = host_.sim().now();
  host_.sim().cancel(pending_->timeout_timer);
}

void GoogleHomeMiniModel::finish_interaction(bool response_received,
                                             bool connection_error,
                                             bool timed_out) {
  if (!pending_) return;
  InteractionResult res;
  res.cmd_id = pending_->cmd.id;
  res.wake_time = pending_->wake_time;
  res.command_end = pending_->command_end;
  res.response_received = response_received;
  res.connection_error = connection_error;
  res.timed_out = timed_out;
  if (pending_->response_start) res.response_start = *pending_->response_start;
  res.done = host_.sim().now();
  host_.sim().cancel(pending_->timeout_timer);
  pending_.reset();
  ++interaction_gen_;
  interactions_.push_back(res);
  if (on_interaction_done) on_interaction_done(res);
}

}  // namespace vg::speaker
