#include "workload/ScenarioFuzz.h"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>

#include "scenario/Generator.h"
#include "scenario/ScenarioLoader.h"
#include "scenario/ScnParser.h"
#include "scenario/Serialize.h"
#include "trace/BatchDecoder.h"
#include "trace/BatchReplayer.h"
#include "trace/Replayer.h"
#include "trace/TraceReader.h"
#include "workload/ScenarioRun.h"

namespace vg::workload {

namespace {

using Violations = std::vector<std::string>;

struct Outcome {
  Violations violations;
  std::uint64_t spikes{0};
  std::uint64_t faults{0};
};

void fail(Violations& out, const std::string& msg) { out.push_back(msg); }

/// Serializer/loader round-trip: the generated spec must pass validation and
/// come back equal — the property that lets a failing seed be checked in
/// verbatim as a regression `.scn`.
void check_roundtrip(const scenario::ScenarioSpec& spec, Violations& out) {
  try {
    const scenario::ScenarioSpec reparsed =
        scenario::ScenarioLoader::load(scenario::write_scn(spec));
    if (!(reparsed == spec)) {
      fail(out, "scn round-trip: reparsed spec differs from the generated one");
    }
  } catch (const scenario::ScnError& e) {
    fail(out, std::string{"scn round-trip: "} + e.what());
  }
}

bool spikes_equal(const trace::ReplaySpike& a, const trace::ReplaySpike& b) {
  return a.flow_id == b.flow_id && a.udp == b.udp && a.start == b.start &&
         a.prefix == b.prefix && a.cls == b.cls && a.rule == b.rule;
}

void check_replay_equal(const trace::ReplayResult& want,
                        const trace::ReplayResult& got, const char* what,
                        Violations& out) {
  if (want.spikes.size() != got.spikes.size()) {
    fail(out, std::string{what} + ": spike count " +
                  std::to_string(got.spikes.size()) + " != " +
                  std::to_string(want.spikes.size()));
    return;
  }
  for (std::size_t i = 0; i < want.spikes.size(); ++i) {
    if (!spikes_equal(want.spikes[i], got.spikes[i])) {
      fail(out,
           std::string{what} + ": spike " + std::to_string(i) + " differs");
      return;
    }
  }
  const bool counters_equal =
      want.frames == got.frames && want.flows == got.flows &&
      want.avs_flows == got.avs_flows &&
      want.google_flows == got.google_flows &&
      want.unmonitored_flows == got.unmonitored_flows &&
      want.tls_records == got.tls_records &&
      want.datagrams == got.datagrams &&
      want.dns_answers == got.dns_answers &&
      want.fault_frames == got.fault_frames &&
      want.heartbeats == got.heartbeats &&
      want.avs_dns_updates == got.avs_dns_updates &&
      want.avs_signature_updates == got.avs_signature_updates &&
      want.commands == got.commands && want.responses == got.responses &&
      want.unknowns == got.unknowns && want.end_time == got.end_time;
  if (!counters_equal) {
    fail(out, std::string{what} + ": tally counters diverge");
  }
}

/// Trace round-trip on \p bytes: parse, column-decode parity against the
/// per-record reader, and per-record Replayer vs columnar BatchReplayer
/// verdict equivalence. Returns the per-record replay for further checks,
/// or nothing if the trace didn't even parse.
std::optional<trace::ReplayResult> check_trace(
    const std::vector<std::uint8_t>& bytes, Violations& out) {
  std::optional<trace::TraceReader> parsed;
  try {
    parsed = trace::TraceReader::parse(bytes);
  } catch (const trace::TraceError& e) {
    fail(out, std::string{"trace re-parse: "} + e.what());
    return std::nullopt;
  }
  const trace::TraceReader& reader = *parsed;
  const trace::ReplayResult replay = trace::Replayer{}.run(reader);

  trace::ColumnBatch batch;
  try {
    batch = trace::BatchDecoder::decode(
        std::span<const std::uint8_t>{bytes.data(), bytes.size()});
  } catch (const trace::TraceError& e) {
    fail(out, std::string{"batch decode: "} + e.what());
    return replay;
  }
  if (const std::string diff = column_parity_error(reader, batch);
      !diff.empty()) {
    fail(out, "batch decode: " + diff);
    return replay;
  }
  const trace::ReplayResult columnar =
      trace::BatchReplayer{}.run(batch).to_replay_result();
  check_replay_equal(replay, columnar, "columnar replay", out);
  return replay;
}

void check_scripted(const scenario::ScenarioSpec& spec, Outcome& o) {
  trace::TraceWriter writer{{spec.name, spec.seed}};
  ChaosResult r;
  try {
    r = run_scenario_scripted(spec, &writer);
  } catch (const std::exception& e) {
    fail(o.violations, std::string{"scripted run threw: "} + e.what());
    return;
  }
  o.spikes += r.spikes;
  o.faults += r.faults_injected;
  const std::uint64_t n_commands = spec.schedule.commands.size();

  // The PR-4 chaos invariants, generalized to an arbitrary script length.
  std::uint64_t held = r.held_outstanding;
  std::uint64_t unresolved = r.unresolved_spikes;
  if (held != 0 || unresolved != 0) {
    // A spike can begin moments before the horizon (late retransmits after a
    // fault window, background traffic), leaving its verdict genuinely in
    // flight when the clock stops. That is truncation, not a leak: extend the
    // drain and require the world to settle. A real hold leak survives any
    // extension.
    scenario::ScenarioSpec longer = spec;
    for (int ext = 0; ext < 2 && (held != 0 || unresolved != 0); ++ext) {
      longer.schedule.drain = longer.schedule.drain + sim::seconds(30);
      try {
        const ChaosResult rl = run_scenario_scripted(longer, nullptr);
        held = rl.held_outstanding;
        unresolved = rl.unresolved_spikes;
      } catch (const std::exception& e) {
        fail(o.violations,
             std::string{"extended-drain rerun threw: "} + e.what());
        break;
      }
    }
    if (held != 0) {
      fail(o.violations, "held packet leak (persists past extended drain): "
                         "held_outstanding = " +
                             std::to_string(held));
    }
    if (unresolved != 0) {
      fail(o.violations, "non-terminal spike (persists past extended drain): "
                         "unresolved_spikes = " +
                             std::to_string(unresolved));
    }
  }
  if (r.interactions > n_commands) {
    fail(o.violations, "more interactions (" + std::to_string(r.interactions) +
                           ") than scripted commands (" +
                           std::to_string(n_commands) + ")");
  }
  if (r.responses + r.connection_errors > r.interactions) {
    fail(o.violations, "interaction accounting: responses + errors exceed "
                       "interactions");
  } else if (!r.may_break_connections) {
    // Connections die only as the visible consequence of an intentional
    // drop, never because a fault reset them behind everyone's back.
    if (r.sessions_killed > r.blocked + r.forced_closed) {
      fail(o.violations,
           "connection broke under a may_break=off plan: sessions_killed " +
               std::to_string(r.sessions_killed) + " > blocked+forced " +
               std::to_string(r.blocked + r.forced_closed));
    }
    // Every reconnect needs an enumerable cause: a blocked or force-closed
    // spike, a hold-queue overflow (the guard sheds the spike like a block),
    // an interaction the speaker gave up on, a deliberately disturbed link
    // (at most one live session death per fault window), or an AVS IP
    // migration (the old server orderly-closes the session).
    const std::uint64_t explained = r.blocked + r.forced_closed +
                                    r.hold_overflows +
                                    (r.interactions - r.responses) +
                                    spec.faults.links.size() +
                                    r.avs_migrations;
    if (r.reconnects > explained) {
      fail(o.violations,
           "unexplained reconnects under a may_break=off plan: " +
               std::to_string(r.reconnects) + " > " +
               std::to_string(explained) + " (" + r.to_string() + ")");
    }
    if (spec.guard.mode == guard::GuardMode::kMonitor) {
      if (r.blocked != 0 || r.forced_closed != 0 || r.sessions_killed != 0) {
        fail(o.violations,
             "monitor mode dropped traffic: blocked/forced/killed = " +
                 std::to_string(r.blocked) + "/" +
                 std::to_string(r.forced_closed) + "/" +
                 std::to_string(r.sessions_killed));
      }
      // A link-fault window can swallow a wake instant (the speaker sees
      // itself disconnected); with an untouched network the monitor guard
      // must be fully transparent — except when an AVS migration closes the
      // session out from under a command already in flight.
      if (spec.faults.links.empty() &&
          r.connection_errors > r.avs_migrations) {
        fail(o.violations, "monitor mode saw connection errors on healthy "
                           "links: " +
                               std::to_string(r.connection_errors) +
                               " with only " +
                               std::to_string(r.avs_migrations) +
                               " AVS migrations");
      }
    }
  }
  if (spec.faults.empty()) {
    if (r.faults_injected != 0 || r.link_dropped != 0) {
      fail(o.violations, "faults fired under an empty plan");
    }
  } else if (r.faults_injected == 0) {
    fail(o.violations, "a non-empty plan injected nothing");
  }

  // Trace round-trip on the capture, including the kFault annotations.
  const auto replay = check_trace(writer.finish(), o.violations);
  if (replay && replay->fault_frames != r.faults_injected) {
    fail(o.violations,
         "capture lost fault annotations: " +
             std::to_string(replay->fault_frames) + " frames for " +
             std::to_string(r.faults_injected) + " injected");
  }
}

void check_capture(const scenario::ScenarioSpec& spec, Outcome& o) {
  TraceScenarioResult res;
  try {
    res = run_scenario_capture(spec);
  } catch (const std::exception& e) {
    fail(o.violations, std::string{"capture run threw: "} + e.what());
    return;
  }
  const auto replay = check_trace(res.bytes, o.violations);
  if (!replay) return;
  o.spikes += replay->spikes.size();
  if (res.synthetic) return;  // generated synthetics carry no ground truth

  // Live monitor-mode guard vs offline replay: verdict for verdict.
  if (replay->spikes.size() != res.live_spikes.size()) {
    fail(o.violations,
         "replay recognized " + std::to_string(replay->spikes.size()) +
             " spikes, live guard " + std::to_string(res.live_spikes.size()));
    return;
  }
  for (std::size_t i = 0; i < replay->spikes.size(); ++i) {
    const trace::ReplaySpike& got = replay->spikes[i];
    const guard::SpikeEvent& want = res.live_spikes[i];
    if (got.flow_id != want.flow_id || got.udp != want.udp ||
        got.start != want.start || got.prefix != want.prefix ||
        got.cls != want.cls || got.rule != want.rule) {
      fail(o.violations,
           "replay spike " + std::to_string(i) + " differs from live guard");
      return;
    }
  }
}

/// Installed by fleet::register_fuzz_population_check(); empty when the
/// harness doesn't link vg_fleet (see ScenarioFuzz.h).
PopulationCheck g_population_check;

Outcome check_impl(const scenario::ScenarioSpec& spec) {
  Outcome o;
  check_roundtrip(spec, o.violations);
  if (spec.scripted()) {
    check_scripted(spec, o);
    if (spec.population.enabled() && g_population_check) {
      for (std::string& v : g_population_check(spec)) {
        o.violations.push_back(std::move(v));
      }
    }
  } else {
    check_capture(spec, o);
  }
  return o;
}

}  // namespace

std::string column_parity_error(const trace::TraceReader& reader,
                                const trace::ColumnBatch& batch) {
  using trace::FrameKind;
  const std::vector<trace::TraceRecord>& recs = reader.records();
  const std::vector<trace::TraceFlow>& flows = reader.flows();
  const trace::TraceMeta& meta = reader.meta();
  if (batch.meta.scenario != meta.scenario || batch.meta.seed != meta.seed ||
      batch.meta.avs_domain != meta.avs_domain ||
      batch.meta.google_domain != meta.google_domain) {
    return "header metadata differs";
  }
  if (batch.size() != recs.size()) return "record count differs";
  if (batch.end_time != reader.end_time()) return "end time differs";
  if (batch.flows.size() != flows.size() ||
      batch.flow_begin_at.size() != flows.size()) {
    return "flow count differs";
  }
  for (std::size_t k = 0; k < flows.size(); ++k) {
    const trace::TraceFlow& a = batch.flows[k];
    const trace::TraceFlow& b = flows[k];
    if (a.protocol != b.protocol || a.speaker != b.speaker ||
        a.server != b.server || a.first_seen != b.first_seen) {
      return "flow " + std::to_string(k) + " differs";
    }
  }
  const std::vector<std::uint32_t>& off = batch.up_offsets;
  if (off.size() != flows.size() + 1 || off.front() != 0 ||
      !std::is_sorted(off.begin(), off.end()) ||
      batch.up_when.size() != off.back() || batch.up_len.size() != off.back() ||
      batch.up_pos.size() != off.back() || batch.up_cls.size() != off.back() ||
      batch.up_tls.size() != off.back()) {
    return "postings are malformed";
  }

  // Walk the records in stream order: each upstream data record must be its
  // flow's next posting, each DNS answer / fault the next side-table entry.
  std::vector<std::uint32_t> next(off.begin(), off.end() - 1);
  std::size_t di = 0;
  std::size_t fi = 0;
  std::uint64_t tls = 0;
  std::uint64_t dgrams = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const trace::TraceRecord& r = recs[i];
    const std::int64_t when = r.when.ns();
    switch (r.kind) {
      case FrameKind::kTlsRecord:
      case FrameKind::kDatagram: {
        const bool is_tls = r.kind == FrameKind::kTlsRecord;
        ++(is_tls ? tls : dgrams);
        if (!r.upstream) break;
        const auto k = static_cast<std::size_t>(r.flow);
        const std::uint32_t j = next[k]++;
        if (j >= off[k + 1] || batch.up_when[j] != when ||
            batch.up_len[j] != r.length || batch.up_pos[j] != i ||
            batch.up_cls[j] != guard::rules::len_class(r.length) ||
            batch.up_tls[j] != (is_tls ? 1 : 0)) {
          return "record " + std::to_string(i) + " differs from its posting";
        }
        break;
      }
      case FrameKind::kDnsAnswer: {
        if (di == batch.dns.size() || batch.dns[di].index != i ||
            batch.dns[di].when_ns != when ||
            batch.dns[di].domain_code != r.domain_code ||
            batch.dns[di].answer != r.dns_answer) {
          return "DNS answer at record " + std::to_string(i) + " differs";
        }
        ++di;
        break;
      }
      case FrameKind::kFlowBegin:
        if (batch.flow_begin_at[static_cast<std::size_t>(r.flow)] != i) {
          return "flow begin at record " + std::to_string(i) + " differs";
        }
        break;
      case FrameKind::kFault: {
        if (fi == batch.faults.size() || batch.faults[fi].index != i ||
            batch.faults[fi].when_ns != when ||
            batch.faults[fi].code != r.fault_code ||
            batch.faults[fi].param != r.fault_param) {
          return "fault at record " + std::to_string(i) + " differs";
        }
        ++fi;
        break;
      }
    }
  }
  if (di != batch.dns.size() || fi != batch.faults.size()) {
    return "side tables hold extra entries";
  }
  for (std::size_t k = 0; k < flows.size(); ++k) {
    if (next[k] != off[k + 1]) {
      return "flow " + std::to_string(k) + " holds extra postings";
    }
  }
  if (batch.tls_records != tls || batch.datagrams != dgrams) {
    return "tallies differ";
  }
  return {};
}

void set_population_check(PopulationCheck check) {
  g_population_check = std::move(check);
}

std::vector<std::string> check_scenario(const scenario::ScenarioSpec& spec) {
  return check_impl(spec).violations;
}

FuzzReport fuzz_scenarios(std::uint64_t first_seed, std::uint64_t count) {
  FuzzReport report;
  report.first_seed = first_seed;
  report.count = count;
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    const scenario::ScenarioSpec spec = scenario::Generator::generate(seed);
    if (spec.scripted()) {
      ++report.scripted;
      if (spec.population.enabled()) ++report.populations;
    } else if (spec.kind == scenario::Kind::kHome) {
      ++report.home_captures;
    } else if (spec.kind == scenario::Kind::kChain) {
      ++report.chain_captures;
    } else {
      ++report.synthetic;
    }
    const Outcome o = check_impl(spec);
    report.faults_injected += o.faults;
    report.replayed_spikes += o.spikes;
    if (!o.violations.empty()) {
      FuzzFailure f;
      f.seed = seed;
      std::ostringstream msg;
      msg << "seed " << seed << " (" << spec.summary() << "):";
      for (const std::string& v : o.violations) msg << "\n  - " << v;
      msg << "\n  repro: vgscn run --seed " << seed;
      f.message = msg.str();
      report.failures.push_back(std::move(f));
    }
  }
  return report;
}

std::string FuzzReport::to_string() const {
  std::ostringstream out;
  out << "fuzzed seeds [" << first_seed << ", " << (first_seed + count)
      << "): " << scripted << " scripted (" << populations
      << " with populations), " << home_captures << " home captures, "
      << chain_captures << " chain captures, " << synthetic << " synthetic; "
      << faults_injected << " faults injected, " << replayed_spikes
      << " spikes replayed; " << failures.size() << " failing seed(s)";
  return out.str();
}

}  // namespace vg::workload
