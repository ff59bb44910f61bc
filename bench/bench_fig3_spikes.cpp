/// Figure 3 — traffic spikes during one user-Echo interaction.
///
/// The paper's example: the user asks for tonight's NBA schedule; the command
/// phase shows the activation spike (1) and the audio spike (2); the response
/// contains three game schedules, so three response spikes (3)(4)(5) follow,
/// each after a no-traffic period. The naive method holds all of (1)(3)(4)(5);
/// VoiceGuard holds only (1).

#include <vector>

#include "common.h"

using namespace vg;

namespace {

struct Obs {
  double t;
  std::uint32_t len;
};

void run_case(guard::GuardMode mode) {
  cloud::CloudFarm::Options farm_opts = bench::stable_farm();
  farm_opts.avs.segment_weights = {0.0, 0.0, 1.0};  // force 3 response segments

  bench::TrafficHarness h{true, sim::from_seconds(1.5), mode, 33, farm_opts};
  speaker::EchoDotModel::Options eopts;
  eopts.misc_connection_mean = sim::Duration{0};
  eopts.phase1.irregular_prob = 0.0;
  // Each game schedule takes 4 s to read out, so every response segment's
  // telemetry spike follows a no-traffic period longer than the 3 s gap
  // that separates spikes (a drawn length can fall under it and merge two).
  eopts.segment_playback_min = sim::seconds(4);
  eopts.segment_playback_max = sim::seconds(4);
  speaker::EchoDotModel echo{h.speaker_host, h.farm.dns_endpoint(),
                             [&h] { return h.farm.current_avs_ip(); }, eopts};
  echo.power_on();
  h.run_to(10);

  // Observe upstream speaker->cloud packets at the guard, like Wireshark on
  // the laptop.
  std::vector<Obs> upstream;
  double t0 = -1;
  h.guard.add_observer([&](const net::Packet& p, net::Direction d) {
    if (d != net::Direction::kLanToWan) return;
    if (p.protocol != net::Protocol::kTcp || p.payload_length() == 0) return;
    if (t0 < 0) t0 = h.sim.now().seconds();
    upstream.push_back(Obs{h.sim.now().seconds(), p.payload_length()});
  });

  echo.hear_command(h.cmd(1, 8));  // "what's tonight's NBA schedule"
  h.run_for(60);

  std::printf("\n--- %s mode ---\n", to_string(mode).c_str());
  std::printf("upstream speaker->cloud traffic (time since first packet):\n");
  double last = -10;
  int spike_no = 0;
  for (const auto& o : upstream) {
    const double t = o.t - t0;
    if (t - last > 3.0) {
      ++spike_no;
      std::printf("  -- spike %d (after %.1f s of no traffic) --\n", spike_no,
                  last < 0 ? 0.0 : t - last);
    }
    last = t;
    std::printf("    t=%7.3fs  len=%5u\n", t, o.len);
  }

  std::printf("\nspike handling by the Traffic Processing Module:\n");
  for (const auto& ev : h.guard.spike_events()) {
    std::printf(
        "  spike at t=%7.3fs: class=%-8s held=%s queried=%s hold=%.3fs\n",
        ev.start.seconds() - t0, to_string(ev.cls).c_str(),
        ev.held ? "yes" : "no ", ev.queried ? "yes" : "no ", ev.hold_seconds);
  }
  std::printf("decision queries: %llu\n",
              static_cast<unsigned long long>(h.decision.queries()));
}

}  // namespace

int main() {
  bench::header("Figure 3: traffic spikes during a user-Echo interaction",
                "Fig. 3 / §IV-B1");
  std::printf(
      "\nThe interaction: command phase = activation spike + small packets +\n"
      "audio spike; response phase = one upstream telemetry spike per spoken\n"
      "response segment (3 segments forced, as in the NBA example).\n"
      "VoiceGuard holds only the command spike; the naive method (hold every\n"
      "spike after idle) also holds all three response spikes, adding delay.\n");

  run_case(guard::GuardMode::kVoiceGuard);
  run_case(guard::GuardMode::kNaive);
  return 0;
}
