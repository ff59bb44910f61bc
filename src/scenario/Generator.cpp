#include "scenario/Generator.h"

#include "simcore/Rng.h"
#include "trace/TraceFormat.h"

namespace vg::scenario {

namespace {

/// One decimal digit in [lo, hi] — keeps serialized specs tidy and exactly
/// round-trippable without burning precision digits.
double tenths(sim::Rng& rng, double lo, double hi) {
  const auto lo10 = static_cast<std::int64_t>(lo * 10.0);
  const auto hi10 = static_cast<std::int64_t>(hi * 10.0);
  return static_cast<double>(rng.uniform_int(lo10, hi10)) / 10.0;
}

sim::Duration secs(std::int64_t s) { return sim::seconds(s); }

void gen_guard(sim::Rng& rng, GuardSpec& g) {
  const std::int64_t mode = rng.uniform_int(0, 9);
  g.mode = mode < 5   ? guard::GuardMode::kVoiceGuard
           : mode < 7 ? guard::GuardMode::kNaive
                      : guard::GuardMode::kMonitor;
  g.fail_policy = rng.uniform_int(0, 1) == 0 ? guard::FailPolicy::kFailClosed
                                             : guard::FailPolicy::kFailOpen;
  // Either no guard-side patience (the decision module's own 6 s timeout
  // rules) or a tighter one that exercises the fail policy.
  g.verdict_timeout = rng.uniform_int(0, 2) == 0
                          ? sim::Duration{}
                          : secs(rng.uniform_int(3, 8));
  constexpr int kCaps[] = {4, 16, 64, 256};
  g.hold_queue_cap = kCaps[rng.uniform_int(0, 3)];
  g.fcm_max_retries = static_cast<int>(rng.uniform_int(0, 3));
  g.fcm_retry_initial = sim::from_seconds(tenths(rng, 0.5, 2.0));
}

/// Returns the last command offset in whole seconds: the window every fault
/// must start inside (drain runs 60 s past it, so anything later would fire
/// after the run and fail the "non-empty plan injected nothing" invariant).
std::int64_t gen_script(sim::Rng& rng, ScheduleSpec& s) {
  const std::int64_t n = rng.uniform_int(2, 6);
  std::int64_t at = rng.uniform_int(5, 15);
  for (std::int64_t i = 0; i < n; ++i) {
    CommandStep step;
    step.at = secs(at);
    step.attack = rng.uniform_int(0, 2) != 0;  // 2/3 of commands are attacks
    s.commands.push_back(step);
    at += rng.uniform_int(15, 40);
  }
  s.drain = s.commands.back().at + secs(60);
  return s.commands.back().at.ns() / 1'000'000'000;
}

void gen_faults(sim::Rng& rng, const ScenarioSpec& spec, std::int64_t span_s,
                faults::FaultPlan& p) {
  using faults::LinkFault;
  if (rng.chance(0.25)) {  // one flap, short (survivable) or long (fatal)
    LinkFault f;
    f.where = rng.uniform_int(0, 1) == 0 ? LinkFault::Where::kLan
                                         : LinkFault::Where::kWan;
    f.kind = LinkFault::Kind::kFlap;
    f.start = secs(rng.uniform_int(10, span_s + 20));
    if (rng.chance(0.6)) {
      f.duration = secs(rng.uniform_int(1, 3));
    } else {
      // Past the ~31 s TCP retransmit budget: sessions are expected to die.
      f.duration = secs(rng.uniform_int(35, 50));
      p.may_break_connections = true;
    }
    p.links.push_back(f);
  }
  if (rng.chance(0.25)) {  // correlated loss on the speaker--guard link
    LinkFault f;
    f.where = LinkFault::Where::kLan;
    f.kind = LinkFault::Kind::kBurst;
    f.start = secs(rng.uniform_int(5, span_s + 20));
    f.duration = secs(rng.uniform_int(20, 120));
    f.ge.loss_bad = tenths(rng, 0.5, 1.0);
    p.links.push_back(f);
  }
  if (rng.chance(0.25)) {  // one-way latency spike on either link
    LinkFault f;
    f.where = rng.uniform_int(0, 1) == 0 ? LinkFault::Where::kLan
                                         : LinkFault::Where::kWan;
    f.kind = LinkFault::Kind::kLatencySpike;
    f.start = secs(rng.uniform_int(5, span_s + 20));
    f.duration = secs(rng.uniform_int(20, 100));
    f.extra_latency = sim::milliseconds(rng.uniform_int(50, 800));
    p.links.push_back(f);
  }
  if (rng.chance(0.2)) {  // the AVS pool goes dark mid-script
    faults::CloudOutage f;
    f.start = secs(rng.uniform_int(10, span_s + 20));
    f.duration = secs(rng.uniform_int(10, 40));
    f.rst_existing = rng.uniform_int(0, 1) == 0;
    p.cloud.push_back(f);
    // Even a refuse-only outage breaks live interactions' reconnect budget,
    // so the label is conservative: any outage may cost a connection.
    p.may_break_connections = true;
  }
  if (rng.chance(0.15)) {  // saturated AVS pool: responses slow, nothing dies
    faults::CloudBrownout f;
    f.start = secs(rng.uniform_int(5, span_s + 20));
    f.duration = secs(rng.uniform_int(10, 60));
    f.extra_latency = sim::milliseconds(rng.uniform_int(100, 900));
    p.brownouts.push_back(f);
  }
  if (rng.chance(0.25)) {  // degraded FCM
    faults::FcmFault f;
    f.start = secs(rng.uniform_int(0, span_s));
    f.duration = secs(rng.uniform_int(40, 160));
    f.extra_delay = sim::from_seconds(tenths(rng, 0.0, 4.0));
    f.drop_prob = tenths(rng, 0.0, 0.6);
    p.fcm.push_back(f);
  }
  if (rng.chance(0.2)) {  // an owner device dies (maybe forever)
    faults::DeviceFault f;
    f.device = static_cast<int>(rng.uniform_int(0, spec.home.owners - 1));
    f.start = secs(rng.uniform_int(5, span_s + 20));
    f.duration = rng.chance(0.2) ? sim::Duration{}
                                 : secs(rng.uniform_int(20, 80));
    p.devices.push_back(f);
  }
  if (rng.chance(0.1)) {  // guard crash/restart mid-script
    faults::GuardRestart f;
    f.at = secs(rng.uniform_int(10, span_s + 30));
    p.restarts.push_back(f);
    p.may_break_connections = true;
  }
  // The Mini's on-demand interactions (fresh DNS + connection per command)
  // have no retransmit patience: any link disturbance can cost it a
  // handshake, so the label is conservative for that speaker.
  if (spec.speaker == Speaker::kGoogleHomeMini && !p.links.empty()) {
    p.may_break_connections = true;
  }
}

void gen_loop(sim::Rng& rng, ScheduleSpec& s, std::int64_t max_commands) {
  s.loop_commands = static_cast<int>(rng.uniform_int(2, max_commands));
  s.boot = secs(10);
  s.gap_base_s = static_cast<double>(rng.uniform_int(18, 30));
  s.gap_jitter_s = static_cast<double>(rng.uniform_int(0, 8));
  s.tail = secs(8);
}

void gen_synthetic(sim::Rng& rng, ScenarioSpec& spec) {
  // A hand-shaped trace: flows that are AVS-monitored (DNS answer, or an
  // establishment-signature burst on an unannounced IP), unmonitored misc
  // flows, and a QUIC flow — each carrying spikes drawn from a pool that
  // covers every §IV-B1 rule plus heartbeats and non-matching noise. No
  // ground truth is derived here; the harness pins per-record vs columnar
  // replay parity and the trace round-trip instead.
  static const std::vector<std::vector<std::uint32_t>> kSpikePool = {
      {138},
      {500, 75},
      {277, 131, 277, 131, 113},
      {250, 131, 113, 113, 113},
      {650, 131, 121, 277, 131},
      {200, 77, 33},
      {41},
      {99, 98, 97},
      {1350, 600, 300, 138},
  };
  std::int64_t ms = 1000;
  const std::int64_t flows = rng.uniform_int(1, 3);
  for (std::int64_t fi = 0; fi < flows; ++fi) {
    const bool udp = fi > 0 && rng.chance(0.3);
    const std::uint8_t last_octet = static_cast<std::uint8_t>(fi + 1);
    const net::IpAddress server{10, 0, 0, last_octet};
    const std::int64_t announce = rng.uniform_int(0, 2);
    if (announce == 0) {  // DNS-announced AVS (or Google for UDP) server
      CaptureOp dns;
      dns.kind = CaptureOp::Kind::kDns;
      dns.domain = udp ? trace::kDomainGoogle : trace::kDomainAvs;
      dns.ip = server;
      dns.at_ms = ms;
      spec.capture.push_back(dns);
      ms += 100;
    }
    CaptureOp flow;
    flow.kind = CaptureOp::Kind::kFlow;
    flow.proto = udp ? net::Protocol::kUdp : net::Protocol::kTcp;
    flow.sport = static_cast<std::uint16_t>(50001 + fi);
    flow.ip = server;
    flow.at_ms = ms;
    spec.capture.push_back(flow);
    ms += 100;
    if (announce == 1 && !udp) {  // signature-adopted server, no DNS
      CaptureOp sig;
      sig.kind = CaptureOp::Kind::kSignature;
      sig.flow = static_cast<int>(fi);
      sig.at_ms = ms;
      spec.capture.push_back(sig);
      ms += 2000;
    }
    const std::int64_t spikes = rng.uniform_int(1, 5);
    for (std::int64_t si = 0; si < spikes; ++si) {
      ms += rng.uniform_int(3500, 8000);  // past the 3 s spike idle gap
      if (udp) {
        const std::int64_t burst = rng.uniform_int(1, 4);
        for (std::int64_t bi = 0; bi < burst; ++bi) {
          CaptureOp dg;
          dg.kind = CaptureOp::Kind::kDatagram;
          dg.flow = static_cast<int>(fi);
          dg.upstream = true;
          dg.len = static_cast<std::uint32_t>(rng.uniform_int(100, 1350));
          dg.at_ms = ms;
          spec.capture.push_back(dg);
          ms += 10;
        }
      } else {
        CaptureOp sp;
        sp.kind = CaptureOp::Kind::kSpike;
        sp.flow = static_cast<int>(fi);
        sp.at_ms = ms;
        sp.lens = kSpikePool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kSpikePool.size()) -
                                   1))];
        spec.capture.push_back(sp);
        ms += 10 * static_cast<std::int64_t>(sp.lens.size());
      }
      if (rng.chance(0.4)) {  // a downstream response record
        CaptureOp down;
        down.kind = udp ? CaptureOp::Kind::kDatagram : CaptureOp::Kind::kTls;
        down.flow = static_cast<int>(fi);
        down.upstream = false;
        down.len = static_cast<std::uint32_t>(rng.uniform_int(200, 1400));
        down.at_ms = ms + 150;
        spec.capture.push_back(down);
        ms += 150;
      }
    }
    ms += 1000;
  }
}

}  // namespace

ScenarioSpec Generator::generate(std::uint64_t seed) {
  // Decorrelate consecutive fuzz seeds.
  sim::Rng rng{sim::splitmix64(seed)};

  ScenarioSpec spec;
  spec.name = "gen-" + std::to_string(seed);
  spec.seed = seed;
  spec.speaker = rng.uniform_int(0, 1) == 0 ? Speaker::kEchoDot
                                            : Speaker::kGoogleHomeMini;

  const std::int64_t shape = rng.uniform_int(0, 99);
  if (shape < 60) {  // scripted home under faults: the chaos-invariant shape
    spec.kind = Kind::kHome;
    const std::int64_t tb = rng.uniform_int(0, 2);
    spec.home.testbed = tb == 0   ? Testbed::kHouse
                        : tb == 1 ? Testbed::kApartment
                                  : Testbed::kOffice;
    spec.home.deployment = static_cast<int>(rng.uniform_int(1, 2));
    spec.home.owners = static_cast<int>(rng.uniform_int(1, 3));
    spec.home.watch = spec.home.testbed == Testbed::kOffice;
    spec.home.motion_sensor = rng.uniform_int(0, 3) != 0;
    gen_guard(rng, spec.guard);
    const std::int64_t span_s = gen_script(rng, spec.schedule);
    gen_faults(rng, spec, span_s, spec.faults);
    // `.scn` phase 2: a quarter of the scripted worlds become small
    // populations so the fuzzer exercises fleet expansion and the
    // fleet-vs-serial parity invariant (kept small: each extra home is a
    // full world run).
    if (rng.chance(0.25)) {
      spec.population.homes = static_cast<std::uint64_t>(rng.uniform_int(2, 5));
      spec.population.command_jitter_s = tenths(rng, 0.0, 3.0);
      spec.population.attack_flip =
          rng.chance(0.5) ? tenths(rng, 0.1, 0.5) : 0.0;
      // Fleet-level orchestration rides on half the populations, crossing
      // fault shapes with population shapes every fuzz run. Each event type
      // is sampled only when the base plan's colliding overlap group is
      // empty: the base [faults] apply to every home, and the loader rejects
      // fleet windows that meet them. Windows start inside the command span
      // so a non-empty plan always injects before the drain ends.
      if (rng.chance(0.5)) {
        fleet::FleetFaultPlan& fp = spec.fleet_faults;
        const std::int64_t max_regions =
            spec.population.homes < 4
                ? static_cast<std::int64_t>(spec.population.homes)
                : 4;
        fp.regions =
            static_cast<std::uint32_t>(rng.uniform_int(1, max_regions));
        if (spec.faults.fcm.empty() && rng.chance(0.5)) {
          fleet::RegionalFcmOutage o;
          o.region =
              static_cast<std::uint32_t>(rng.uniform_int(0, fp.regions - 1));
          o.start = secs(rng.uniform_int(5, span_s + 10));
          o.duration = secs(rng.uniform_int(5, 25));
          o.extra_delay = sim::from_seconds(tenths(rng, 0.0, 1.0));
          o.drop_prob = tenths(rng, 0.5, 1.0);
          fp.fcm_outages.push_back(o);
        }
        if (spec.faults.cloud.empty() && spec.faults.brownouts.empty() &&
            rng.chance(0.4)) {
          fleet::CloudCapacityEvent ev;
          ev.start = secs(rng.uniform_int(5, span_s + 10));
          ev.duration = secs(rng.uniform_int(5, 20));
          ev.fraction = tenths(rng, 0.1, 1.0);
          ev.rst_existing = rng.uniform_int(0, 1) == 0;
          ev.recovery_spread = secs(rng.uniform_int(0, 10));
          ev.extra_latency = sim::milliseconds(rng.uniform_int(0, 500));
          fp.cloud_capacity.push_back(ev);
          spec.faults.may_break_connections = true;
        }
        bool wan_spiked = false;
        for (const faults::LinkFault& f : spec.faults.links) {
          wan_spiked |= f.where == faults::LinkFault::Where::kWan &&
                        f.kind == faults::LinkFault::Kind::kLatencySpike;
        }
        if (!wan_spiked && rng.chance(0.4)) {
          fleet::WanDegradeWindow w;
          w.region =
              static_cast<std::uint32_t>(rng.uniform_int(0, fp.regions - 1));
          w.start = secs(rng.uniform_int(5, span_s + 10));
          w.duration = secs(rng.uniform_int(10, 30));
          w.extra_latency = sim::milliseconds(rng.uniform_int(50, 500));
          fp.wan_degrades.push_back(w);
        }
        if (rng.chance(0.3)) {
          fleet::GuardRestartWave w;
          w.start = secs(rng.uniform_int(10, span_s + 10));
          w.stagger = secs(rng.uniform_int(1, 15));
          w.fraction = tenths(rng, 0.2, 1.0);
          fp.restart_waves.push_back(w);
          spec.faults.may_break_connections = true;
        }
        if (rng.chance(0.5)) {
          fp.resilience.reconnect_backoff = tenths(rng, 1.5, 3.0);
          fp.resilience.reconnect_backoff_cap = secs(rng.uniform_int(8, 30));
          fp.resilience.reconnect_budget =
              static_cast<int>(rng.uniform_int(3, 8));
        }
        if (rng.chance(0.5)) {
          fp.resilience.fcm_retry_jitter = tenths(rng, 0.1, 0.9);
        }
        if (rng.chance(0.3)) {
          fp.resilience.fcm_retry_budget =
              static_cast<int>(rng.uniform_int(8, 64));
        }
      }
    }
  } else if (shape < 75) {  // full-world capture loop: the golden-trace shape
    spec.kind = Kind::kHome;
    const std::int64_t tb = rng.uniform_int(0, 2);
    spec.home.testbed = tb == 0   ? Testbed::kHouse
                        : tb == 1 ? Testbed::kApartment
                                  : Testbed::kOffice;
    spec.home.owners = static_cast<int>(rng.uniform_int(1, 2));
    spec.home.watch = spec.home.testbed == Testbed::kOffice;
    gen_loop(rng, spec.schedule, 5);
  } else if (shape < 90) {  // minimal chain capture
    spec.kind = Kind::kChain;
    gen_loop(rng, spec.schedule, 8);
    if (spec.speaker == Speaker::kEchoDot) {
      spec.chain.avs_migration_mean =
          rng.chance(0.5) ? sim::Duration{} : secs(rng.uniform_int(60, 150));
      spec.chain.misc_connection_mean = secs(rng.uniform_int(60, 300));
    } else {
      spec.chain.avs_migration_mean = sim::Duration{};
      spec.chain.quic_probability = tenths(rng, 0.3, 1.0);
    }
  } else {  // hand-shaped synthetic trace
    spec.kind = Kind::kSynthetic;
    gen_synthetic(rng, spec);
  }
  spec.faults.name = spec.name;
  spec.fleet_faults.name = spec.name;
  return spec;
}

}  // namespace vg::scenario
