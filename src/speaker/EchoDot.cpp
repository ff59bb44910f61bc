#include "speaker/EchoDot.h"

#include <algorithm>
#include <charconv>

namespace vg::speaker {

EchoDotModel::EchoDotModel(net::Host& host, net::Endpoint dns_server,
                           std::function<net::IpAddress()> avs_ip_oracle,
                           Options opts)
    : host_(host),
      dns_(host, dns_server),
      avs_ip_oracle_(std::move(avs_ip_oracle)),
      opts_(std::move(opts)),
      rng_(host.sim().rng("speaker.echo")),
      misc_rng_(host.sim().rng("speaker.echo.misc")),
      traffic_rng_(host.sim().rng("speaker.echo.traffic")),
      playback_rng_(host.sim().rng("speaker.echo.playback")) {}

void EchoDotModel::power_on() {
  if (powered_) return;
  powered_ = true;
  resolve_and_connect(/*allow_dnsless=*/false);
  schedule_heartbeat();
  if (opts_.misc_connection_mean.ns() > 0) schedule_misc_connection();
}

void EchoDotModel::resolve_and_connect(bool allow_dnsless) {
  if (allow_dnsless && !rng_.chance(opts_.dns_on_reconnect_prob)) {
    // Reconnect without an observable DNS query (§IV-B: "sometimes we fail
    // to acquire the new IP address of the AVS server by tracking DNS").
    ++dnsless_reconnects_;
    connect_to(avs_ip_oracle_());
    return;
  }
  dns_.resolve(opts_.avs_domain, [this](const net::AddrVec& ips) {
    if (ips.empty()) {
      host_.sim().after(sim::seconds(5), [this] { resolve_and_connect(false); });
      return;
    }
    connect_to(ips.front());
  });
}

void EchoDotModel::connect_to(net::IpAddress ip) {
  avs_ip_ = ip;
  tls_seq_ = 0;
  ++conn_gen_;
  const std::uint64_t gen = conn_gen_;
  net::TcpCallbacks cbs;
  cbs.on_established = [this, gen] { on_connected(gen); };
  cbs.on_record = [this](const net::TlsRecord& r) { on_server_record(r); };
  cbs.on_closed = [this, gen](net::TcpCloseReason reason) {
    if (gen == conn_gen_) on_connection_closed(reason);
  };
  net::TcpOptions topts;
  topts.keepalive_enabled = opts_.keepalive;
  topts.keepalive_idle = opts_.keepalive_idle;
  topts.keepalive_interval = opts_.keepalive_interval;
  topts.keepalive_probes = opts_.keepalive_probes;
  conn_ = &host_.tcp().connect(net::Endpoint{ip, opts_.avs_port},
                               std::move(cbs), topts);
}

void EchoDotModel::send_record(std::uint64_t gen, std::uint32_t len,
                               std::string_view tag, net::TlsContentType type) {
  if (gen != conn_gen_ || conn_ == nullptr) return;
  net::TlsRecord r;
  r.type = type;
  r.length = len;
  r.tls_seq = tls_seq_++;
  r.tag = tag;
  conn_->send_record(std::move(r));
}

void EchoDotModel::on_connected(std::uint64_t gen) {
  if (gen != conn_gen_) return;
  last_established_at_ = host_.sim().now();
  // Emit the fixed establishment signature, spread over ~160 ms, exactly the
  // per-packet lengths of §IV-B (configurable for firmware-update scenarios).
  sim::Duration t{0};
  for (std::size_t i = 0; i < opts_.establishment_signature.size(); ++i) {
    const std::uint32_t len = opts_.establishment_signature[i];
    const auto type = (i < 3) ? net::TlsContentType::kHandshake
                              : net::TlsContentType::kApplicationData;
    host_.sim().after(t, [this, gen, len, type] {
      send_record(gen, len, "establishment", type);
    });
    t += sim::milliseconds(10);
  }
}

void EchoDotModel::on_connection_closed(net::TcpCloseReason reason) {
  conn_ = nullptr;
  if (reason != net::TcpCloseReason::kFin) ++connections_lost_;
  ++conn_gen_;  // invalidate all scheduled sends of the dead connection
  host_.sim().log(sim::LogLevel::kDebug, "echo-dot",
                  "AVS session closed (" + net::to_string(reason) + ")");
  if (pending_) {
    // Session died mid-interaction: the Echo plays its error chime. This is
    // what a *blocked* command looks like from the speaker.
    finish_interaction(/*response_received=*/false, /*connection_error=*/true,
                       /*timed_out=*/false);
  }
  if (!powered_) return;
  ++reconnects_;
  sim::Duration wait{rng_.uniform_int(opts_.reconnect_delay_min.ns(),
                                      opts_.reconnect_delay_max.ns())};
  if (opts_.reconnect_backoff_factor > 1.0) {
    // Scale the jittered base window by factor^streak; a streak past the
    // fast-retry budget waits the full cap every time. A settled session
    // (up for at least reconnect_settle) resets the streak at close, so a
    // healthy session that dies once still reconnects at seed speed. The
    // reset cannot happen at establishment: a capacity-refused connect
    // completes the TCP handshake before the server's RST, and resetting
    // there would let refusal loops hammer the cloud at full rate forever.
    if (last_established_at_ > sim::TimePoint{} &&
        host_.sim().now() - last_established_at_ >= opts_.reconnect_settle) {
      reconnect_streak_ = 0;
    }
    if (opts_.reconnect_budget > 0 && reconnect_streak_ >= opts_.reconnect_budget) {
      wait = opts_.reconnect_backoff_cap;
    } else {
      double scale = 1.0;
      for (int i = 0; i < reconnect_streak_ && i < 64; ++i) {
        scale *= opts_.reconnect_backoff_factor;
      }
      const double ns = static_cast<double>(wait.ns()) * scale;
      const double cap = static_cast<double>(opts_.reconnect_backoff_cap.ns());
      wait = sim::Duration{static_cast<std::int64_t>(ns < cap ? ns : cap)};
    }
    ++reconnect_streak_;
  }
  host_.sim().after(wait, [this] { resolve_and_connect(/*allow_dnsless=*/true); });
}

void EchoDotModel::schedule_heartbeat() {
  heartbeat_timer_ = host_.sim().after(opts_.heartbeat_interval, [this] {
    if (connected() && !pending_) {
      send_record(conn_gen_, opts_.heartbeat_len, "heartbeat");
    }
    schedule_heartbeat();
  });
}

void EchoDotModel::schedule_misc_connection() {
  const sim::Duration wait = sim::from_seconds(
      misc_rng_.exponential_mean(opts_.misc_connection_mean.seconds()));
  host_.sim().after(wait, [this] {
    const int idx = static_cast<int>(misc_rng_.uniform_int(0, 5));
    dns_.resolve("misc-" + std::to_string(idx) + ".amazon.com",
                 [this, idx](const net::AddrVec& ips) {
                   if (!ips.empty()) {
                     // Short-lived side connection with its own establishment
                     // signature; exists to exercise signature discrimination.
                     net::TcpConnection& c = host_.tcp().connect(
                         net::Endpoint{ips.front(), 443}, net::TcpCallbacks{});
                     std::uint64_t seq = 0;
                     for (std::uint32_t len : other_server_signature(idx)) {
                       net::TlsRecord rec;
                       rec.length = len;
                       rec.tls_seq = seq++;
                       rec.tag = "misc-establishment";
                       c.send_record(std::move(rec));
                     }
                     host_.sim().after(sim::seconds(2), [&c] {
                       if (c.state() != net::TcpState::kClosed) c.close();
                     });
                   }
                 });
    schedule_misc_connection();
  });
}

void EchoDotModel::hear_command(const CommandSpec& cmd) {
  if (pending_) return;  // already mid-interaction; real Echos ignore overlap
  const sim::TimePoint wake =
      host_.sim().now() + sim::from_seconds(CommandSpec::kWakeWordSeconds);
  host_.sim().at(wake, [this, cmd, wake] {
    if (pending_) return;
    if (!connected()) {
      InteractionResult res;
      res.cmd_id = cmd.id;
      res.wake_time = wake;
      res.connection_error = true;
      interactions_.push_back(res);
      if (on_interaction_done) on_interaction_done(res);
      return;
    }
    start_phase1(cmd, wake);
  });
}

void EchoDotModel::start_phase1(const CommandSpec& cmd, sim::TimePoint wake_time) {
  sim::Rng& rng = traffic_rng_;
  pending_ = PendingInteraction{};
  pending_->cmd = cmd;
  pending_->wake_time = wake_time;
  ++interaction_gen_;
  const std::uint64_t gen = conn_gen_;

  // Spike (1): activation burst — the prefix whose lengths carry the phase-1
  // pattern, at ~15 ms spacing.
  const auto prefix = gen_phase1_prefix(rng, opts_.phase1);
  sim::Duration t{0};
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    const std::uint32_t len = prefix[i];
    // Interned once here: the scheduled send then captures a 16-byte
    // string_view instead of heap-owning the tag in every closure.
    const std::string_view tag =
        (i == 0) ? host_.sim().intern("activation:" + std::to_string(cmd.id))
                 : std::string_view{"activation-data"};
    host_.sim().after(t, [this, gen, len, tag] { send_record(gen, len, tag); });
    t += sim::milliseconds(15);
  }

  // Small packets until the user stops speaking (intervals < 1 s, so no
  // "no-traffic period" splits phase 1 into separate spikes).
  const sim::Duration speech_left =
      cmd.speech_duration() - sim::from_seconds(CommandSpec::kWakeWordSeconds);
  sim::Duration cursor = t + sim::milliseconds(120);
  while (cursor < speech_left) {
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(96, 260));
    host_.sim().after(cursor,
                      [this, gen, len] { send_record(gen, len, "stream-meta"); });
    cursor += sim::milliseconds(rng.uniform_int(300, 750));
  }

  // Spike (2): the command audio itself, finishing right after speech ends.
  const int audio_records = std::clamp(
      static_cast<int>(cmd.speech_duration().seconds() * 4.0), 6, 40);
  sim::Duration audio_t = speech_left;
  for (int i = 0; i < audio_records; ++i) {
    const bool last = (i == audio_records - 1);
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(1180, 1420));
    const std::string_view tag = last ? host_.sim().intern(cmd.end_tag())
                                      : std::string_view{"voice-audio"};
    host_.sim().after(audio_t,
                      [this, gen, len, tag] { send_record(gen, len, tag); });
    audio_t += sim::milliseconds(8);
  }

  const sim::TimePoint command_end = host_.sim().now() + audio_t;
  pending_->command_end = command_end;

  // Client-side patience for the response.
  pending_->timeout_timer =
      host_.sim().at(command_end + opts_.response_timeout, [this] {
        if (pending_ && !pending_->response_start) {
          finish_interaction(false, false, /*timed_out=*/true);
        }
      });
}

void EchoDotModel::on_server_record(const net::TlsRecord& r) {
  if (r.tag.starts_with("alert:")) return;  // connection death follows
  if (r.tag == "heartbeat-ack") return;
  if (!pending_) return;

  if (r.tag.starts_with("response-seg-end:")) {
    // "response-seg-end:<k>/<n>"
    const auto slash = r.tag.find('/');
    int total = 0;
    std::from_chars(r.tag.data() + slash + 1, r.tag.data() + r.tag.size(),
                    total);
    if (!pending_->response_start) {
      pending_->response_start = host_.sim().now();
      pending_->segments_expected = total;
      host_.sim().cancel(pending_->timeout_timer);
      // Begin playing segment 1.
      const sim::Duration playback{playback_rng_.uniform_int(
          opts_.segment_playback_min.ns(), opts_.segment_playback_max.ns())};
      const std::uint64_t igen = interaction_gen_;
      host_.sim().after(playback, [this, igen] { segment_done(igen); });
    }
  }
}

void EchoDotModel::segment_done(std::uint64_t interaction_gen) {
  if (!pending_ || interaction_gen != interaction_gen_) return;
  ++pending_->segments_played;
  emit_phase2_spike();
  if (pending_->segments_played >= pending_->segments_expected) {
    finish_interaction(/*response_received=*/true, false, false);
    return;
  }
  const sim::Duration playback{playback_rng_.uniform_int(
      opts_.segment_playback_min.ns(), opts_.segment_playback_max.ns())};
  host_.sim().after(playback,
                    [this, interaction_gen] { segment_done(interaction_gen); });
}

void EchoDotModel::emit_phase2_spike() {
  const auto prefix = gen_phase2_prefix(traffic_rng_);
  const std::uint64_t gen = conn_gen_;
  sim::Duration t{0};
  for (std::uint32_t len : prefix) {
    host_.sim().after(
        t, [this, gen, len] { send_record(gen, len, "playback-telemetry"); });
    t += sim::milliseconds(15);
  }
}

void EchoDotModel::finish_interaction(bool response_received,
                                      bool connection_error, bool timed_out) {
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
