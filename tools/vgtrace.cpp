/// vgtrace — wire-trace capture & replay tool.
///
///   vgtrace record <scenario> <out.vgt> [--seed N]   capture a scenario
///   vgtrace replay <trace.vgt|dir> [options]         replay the recognizer
///   vgtrace stats  <trace.vgt|dir> [options]         summarize + spike table
///   vgtrace diff   <a.vgt> <b.vgt> [--no-faults]     compare two traces
///   vgtrace list                                     list known scenarios
///
/// `record` re-runs one of the named deterministic scenarios; the same
/// scenario + seed always reproduces the shipped golden traces byte for byte
/// (see EXPERIMENTS.md for the regeneration policy).
///
/// `replay` and `stats` accept either a single `.vgt` file or a directory:
/// a directory replays every `*.vgt` inside it (sorted by name), sharded
/// across a worker pool, and prints per-trace summaries plus merged tallies.
/// The columnar batch engine (mmap + BatchDecoder + BatchReplayer) is the
/// default; `--legacy` selects the per-record Replayer instead.
///
/// Exit codes: 0 success (for `diff`: traces match), 1 runtime error (for
/// `diff`: traces differ), 2 usage error, 3 I/O error (missing/unreadable
/// file), 4 corrupt or unsupported trace.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "simcore/BatchRunner.h"
#include "trace/BatchDecoder.h"
#include "trace/BatchReplayer.h"
#include "trace/Replayer.h"
#include "trace/TraceReader.h"
#include "workload/TraceScenarios.h"

using namespace vg;

namespace {

constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitCorrupt = 4;

const char kUsageText[] =
    "usage:\n"
    "  vgtrace record <scenario> <out.vgt> [--seed N]\n"
    "  vgtrace replay <trace.vgt|dir> [--mode monitor|voiceguard|naive]\n"
    "                 [--legacy] [--jobs N]\n"
    "  vgtrace stats  <trace.vgt|dir> [--mode monitor|voiceguard|naive]\n"
    "                 [--legacy] [--jobs N]\n"
    "  vgtrace diff   <a.vgt> <b.vgt> [--no-faults]\n"
    "  vgtrace list\n"
    "  vgtrace --help | --version\n";

int usage() {
  std::fputs(kUsageText, stderr);
  return kExitUsage;
}

int cmd_help() {
  std::fputs(kUsageText, stdout);
  std::printf(
      "\ncommands:\n"
      "  record   re-run a named deterministic scenario and write its wire\n"
      "           capture; the same scenario + seed reproduces the golden\n"
      "           traces byte for byte\n"
      "  replay   run the offline recognizer over a trace and print tallies;\n"
      "           given a directory, replays every *.vgt in it (sorted by\n"
      "           name) across a worker pool and merges the tallies\n"
      "  stats    replay plus the per-spike table and fault annotations\n"
      "           (single trace) or per-trace summary lines (directory)\n"
      "  diff     compare two traces frame by frame; --no-faults strips\n"
      "           injected-fault annotations from both sides first\n"
      "  list     list the recordable scenarios and their default seeds\n"
      "\noptions:\n"
      "  --mode M    guard decision mode for replay (default: monitor)\n"
      "  --legacy    per-record replay engine instead of the columnar batch\n"
      "              engine (they are equivalence-tested against each other)\n"
      "  --jobs N    worker threads for directory replay (default: one per\n"
      "              hardware thread)\n"
      "  --seed N    scenario seed for record (default: the scenario's own)\n"
      "\nexit codes:\n"
      "  0  success (diff: traces match)\n"
      "  1  runtime error (diff: traces differ)\n"
      "  2  usage error\n"
      "  3  I/O error (missing or unreadable file)\n"
      "  4  corrupt or unsupported trace\n");
  return 0;
}

int cmd_version() {
  std::printf("vgtrace (trace format v%u)\n",
              static_cast<unsigned>(trace::kVersion));
  return 0;
}

int cmd_list() {
  for (const workload::TraceScenario& s : workload::trace_scenarios()) {
    std::printf("%-18s seed %-6llu %s\n", s.name.c_str(),
                static_cast<unsigned long long>(s.default_seed),
                s.summary.c_str());
  }
  return 0;
}

int cmd_record(const std::string& scenario, const std::string& out,
               std::uint64_t seed) {
  const workload::TraceScenarioResult r =
      workload::run_trace_scenario(scenario, seed);
  // run_trace_scenario already serialized the capture; just persist it.
  std::FILE* f = std::fopen(out.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "vgtrace: cannot open %s for writing: %s\n",
                 out.c_str(), std::strerror(errno));
    return kExitIo;
  }
  const std::size_t n = std::fwrite(r.bytes.data(), 1, r.bytes.size(), f);
  const int rc = std::fclose(f);
  if (n != r.bytes.size() || rc != 0) {
    std::fprintf(stderr, "vgtrace: short write to %s\n", out.c_str());
    return kExitIo;
  }
  const trace::TraceReader t = trace::TraceReader::parse(r.bytes);
  std::printf("recorded %s (seed %llu): %zu bytes, %zu frames, %zu flows\n",
              scenario.c_str(), static_cast<unsigned long long>(seed),
              r.bytes.size(), t.records().size(), t.flows().size());
  if (!r.synthetic) {
    std::printf("live guard recognized %zu spikes\n", r.live_spikes.size());
  }
  return 0;
}

void print_replay(const trace::ReplayResult& res) {
  std::printf("frames %llu | flows %llu (avs %llu, google %llu, other %llu)\n",
              static_cast<unsigned long long>(res.frames),
              static_cast<unsigned long long>(res.flows),
              static_cast<unsigned long long>(res.avs_flows),
              static_cast<unsigned long long>(res.google_flows),
              static_cast<unsigned long long>(res.unmonitored_flows));
  std::printf(
      "tls records %llu | datagrams %llu | dns answers %llu | heartbeats "
      "%llu\n",
      static_cast<unsigned long long>(res.tls_records),
      static_cast<unsigned long long>(res.datagrams),
      static_cast<unsigned long long>(res.dns_answers),
      static_cast<unsigned long long>(res.heartbeats));
  std::printf(
      "avs ip updates: %llu from dns, %llu from signature\n",
      static_cast<unsigned long long>(res.avs_dns_updates),
      static_cast<unsigned long long>(res.avs_signature_updates));
  std::printf("spikes: %zu (%llu command, %llu response, %llu unknown)\n",
              res.spikes.size(),
              static_cast<unsigned long long>(res.commands),
              static_cast<unsigned long long>(res.responses),
              static_cast<unsigned long long>(res.unknowns));
}

void print_spike_table(const trace::ReplayResult& res) {
  std::printf("\n%-5s %-5s %-12s %-9s %-14s %s\n", "#", "flow", "start",
              "class", "rule", "prefix");
  for (std::size_t i = 0; i < res.spikes.size(); ++i) {
    const trace::ReplaySpike& sp = res.spikes[i];
    std::string prefix;
    for (std::uint32_t len : sp.prefix) {
      if (!prefix.empty()) prefix += ',';
      prefix += std::to_string(len);
    }
    std::printf("%-5zu %-5llu %-12s %-9s %-14s [%s]\n", i + 1,
                static_cast<unsigned long long>(sp.flow_id),
                sim::format_time(sp.start).c_str(),
                guard::to_string(sp.cls).c_str(),
                guard::to_string(sp.rule).c_str(), prefix.c_str());
  }
}

void print_fault_annotations(const trace::ColumnBatch& b) {
  if (b.faults.empty()) return;
  std::printf("\ninjected faults (%zu):\n", b.faults.size());
  for (const trace::ColumnBatch::FaultEvent& ev : b.faults) {
    std::printf("  %-12s %-14s param %llu\n",
                sim::format_time(sim::TimePoint{ev.when_ns}).c_str(),
                trace::fault_code_name(ev.code),
                static_cast<unsigned long long>(ev.param));
  }
}

struct ReplayFlags {
  guard::GuardMode mode{guard::GuardMode::kMonitor};
  bool legacy{false};
  unsigned jobs{0};  // 0 = hardware concurrency
};

/// Replays one trace with the selected engine. The legacy path exists as a
/// user-selectable oracle: `--legacy` output must match the default engine's.
trace::ReplayResult replay_one(const std::string& path,
                               const ReplayFlags& flags) {
  trace::ReplayOptions opts;
  opts.mode = flags.mode;
  if (flags.legacy) {
    const trace::TraceReader t = trace::TraceReader::load(path);
    return trace::Replayer{opts}.run(t);
  }
  const trace::ColumnBatch b = trace::BatchDecoder::load(path);
  return trace::BatchReplayer{opts}.run(b).to_replay_result();
}

/// Sorted *.vgt files directly inside \p dir.
std::vector<std::string> trace_files(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (std::filesystem::directory_iterator it{dir, ec}, end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file() && it->path().extension() == ".vgt") {
      paths.push_back(it->path().string());
    }
  }
  if (ec) {
    throw trace::TraceIoError{dir + ": " + ec.message()};
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

int cmd_replay_dir(const std::string& dir, const ReplayFlags& flags,
                   bool table) {
  const std::vector<std::string> paths = trace_files(dir);
  if (paths.empty()) {
    std::fprintf(stderr, "vgtrace: no .vgt traces in %s\n", dir.c_str());
    return kExitIo;
  }
  sim::BatchRunner pool{flags.jobs};
  // Shard one trace per job; BatchRunner::map keeps results in input order
  // and rethrows the first failure after the batch drains.
  const std::vector<trace::ReplayResult> results =
      pool.map<trace::ReplayResult>(paths.size(), [&](std::size_t i) {
        return replay_one(paths[i], flags);
      });

  trace::ReplayResult merged;
  std::printf("%-40s %8s %6s %7s %8s %9s %8s\n", "trace", "frames", "flows",
              "spikes", "command", "response", "unknown");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const trace::ReplayResult& r = results[i];
    std::printf("%-40s %8llu %6llu %7zu %8llu %9llu %8llu\n",
                std::filesystem::path{paths[i]}.filename().c_str(),
                static_cast<unsigned long long>(r.frames),
                static_cast<unsigned long long>(r.flows), r.spikes.size(),
                static_cast<unsigned long long>(r.commands),
                static_cast<unsigned long long>(r.responses),
                static_cast<unsigned long long>(r.unknowns));
    merged.frames += r.frames;
    merged.flows += r.flows;
    merged.avs_flows += r.avs_flows;
    merged.google_flows += r.google_flows;
    merged.unmonitored_flows += r.unmonitored_flows;
    merged.tls_records += r.tls_records;
    merged.datagrams += r.datagrams;
    merged.dns_answers += r.dns_answers;
    merged.fault_frames += r.fault_frames;
    merged.heartbeats += r.heartbeats;
    merged.avs_dns_updates += r.avs_dns_updates;
    merged.avs_signature_updates += r.avs_signature_updates;
    merged.commands += r.commands;
    merged.responses += r.responses;
    merged.unknowns += r.unknowns;
    merged.spikes.insert(merged.spikes.end(), r.spikes.begin(),
                         r.spikes.end());
  }
  std::printf("\nmerged over %zu traces (%u workers):\n", paths.size(),
              pool.worker_count());
  print_replay(merged);
  if (table && !flags.legacy) {
    // Per-trace spike tables would repeat the summary lines; stats on a
    // directory keeps the merged view only.
    std::printf("(per-spike tables: run stats on a single trace)\n");
  }
  return 0;
}

int cmd_replay(const std::string& path, const ReplayFlags& flags, bool table) {
  if (std::filesystem::is_directory(path)) {
    return cmd_replay_dir(path, flags, table);
  }
  // Both engines read the columns: the batch engine replays them, the
  // legacy engine only uses them for the header line and fault table (its
  // replay goes through TraceReader inside replay_one).
  trace::ColumnBatch batch = trace::BatchDecoder::load(path);
  trace::ReplayOptions opts;
  opts.mode = flags.mode;
  const trace::ReplayResult res =
      flags.legacy
          ? trace::Replayer{opts}.run(trace::TraceReader::load(path))
          : trace::BatchReplayer{opts}.run(batch).to_replay_result();
  std::printf("%s: scenario '%s', seed %llu, %s of wire time\n", path.c_str(),
              batch.meta.scenario.c_str(),
              static_cast<unsigned long long>(batch.meta.seed),
              sim::format_duration(batch.end_time - sim::TimePoint{}).c_str());
  print_replay(res);
  if (table) {
    print_spike_table(res);
    print_fault_annotations(batch);
  }
  return 0;
}

int cmd_diff(const std::string& a, const std::string& b, bool no_faults) {
  const std::vector<std::uint8_t> ba = trace::read_file(a);
  const std::vector<std::uint8_t> bb = trace::read_file(b);
  if (!no_faults && ba == bb) {
    std::printf("traces are byte-identical (%zu bytes)\n", ba.size());
    return 0;
  }
  // Decode both and compare frame by frame (reporting the first diverging
  // frame is far more actionable than a raw byte offset). With --no-faults,
  // injected-fault annotations are stripped from both sides first, so a
  // chaos capture can be compared against a benign one.
  const trace::TraceReader ta = trace::TraceReader::parse(ba);
  const trace::TraceReader tb = trace::TraceReader::parse(bb);
  if (ta.meta().scenario != tb.meta().scenario ||
      ta.meta().seed != tb.meta().seed) {
    std::printf("headers differ: '%s' seed %llu vs '%s' seed %llu\n",
                ta.meta().scenario.c_str(),
                static_cast<unsigned long long>(ta.meta().seed),
                tb.meta().scenario.c_str(),
                static_cast<unsigned long long>(tb.meta().seed));
  }
  auto filtered = [no_faults](const trace::TraceReader& t) {
    std::vector<const trace::TraceRecord*> recs;
    recs.reserve(t.records().size());
    for (const trace::TraceRecord& rec : t.records()) {
      if (no_faults && rec.kind == trace::FrameKind::kFault) continue;
      recs.push_back(&rec);
    }
    return recs;
  };
  const std::vector<const trace::TraceRecord*> fa = filtered(ta);
  const std::vector<const trace::TraceRecord*> fb = filtered(tb);
  const std::size_t n = std::min(fa.size(), fb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const trace::TraceRecord& ra = *fa[i];
    const trace::TraceRecord& rb = *fb[i];
    if (ra.kind != rb.kind || ra.when != rb.when || ra.flow != rb.flow ||
        ra.upstream != rb.upstream || ra.length != rb.length ||
        ra.domain_code != rb.domain_code || ra.dns_answer != rb.dns_answer ||
        ra.fault_code != rb.fault_code || ra.fault_param != rb.fault_param ||
        (ra.kind == trace::FrameKind::kTlsRecord && ra.tls_type != rb.tls_type)) {
      std::printf("first divergence at frame %zu:\n", i);
      std::printf("  a: kind %u t %s flow %d len %u\n",
                  static_cast<unsigned>(ra.kind),
                  sim::format_time(ra.when).c_str(), ra.flow, ra.length);
      std::printf("  b: kind %u t %s flow %d len %u\n",
                  static_cast<unsigned>(rb.kind),
                  sim::format_time(rb.when).c_str(), rb.flow, rb.length);
      return 1;
    }
  }
  if (fa.size() != fb.size()) {
    std::printf("traces differ: %zu vs %zu frames (first %zu identical)\n",
                fa.size(), fb.size(), n);
    return 1;
  }
  std::printf("traces are frame-identical%s (%zu frames)\n",
              no_faults ? " modulo fault annotations" : "", n);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& cmd = args[0];
    if (cmd == "--help" || cmd == "help") return cmd_help();
    if (cmd == "--version" || cmd == "version") return cmd_version();
    if (cmd == "list") return cmd_list();
    if (cmd == "record") {
      if (args.size() < 3) return usage();
      std::uint64_t seed = 0;
      bool seed_set = false;
      for (std::size_t i = 3; i < args.size(); ++i) {
        if (args[i] == "--seed" && i + 1 < args.size()) {
          seed = std::strtoull(args[++i].c_str(), nullptr, 10);
          seed_set = true;
        } else {
          return usage();
        }
      }
      if (!seed_set) {
        for (const workload::TraceScenario& s : workload::trace_scenarios()) {
          if (s.name == args[1]) {
            seed = s.default_seed;
            seed_set = true;
          }
        }
        if (!seed_set) {
          std::fprintf(stderr, "vgtrace: unknown scenario '%s' (try list)\n",
                       args[1].c_str());
          return kExitUsage;
        }
      }
      return cmd_record(args[1], args[2], seed);
    }
    if (cmd == "replay" || cmd == "stats") {
      if (args.size() < 2) return usage();
      ReplayFlags flags;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--mode" && i + 1 < args.size()) {
          const std::string& m = args[++i];
          if (m == "monitor") flags.mode = guard::GuardMode::kMonitor;
          else if (m == "voiceguard") flags.mode = guard::GuardMode::kVoiceGuard;
          else if (m == "naive") flags.mode = guard::GuardMode::kNaive;
          else return usage();
        } else if (args[i] == "--legacy") {
          flags.legacy = true;
        } else if (args[i] == "--jobs" && i + 1 < args.size()) {
          flags.jobs = static_cast<unsigned>(
              std::strtoul(args[++i].c_str(), nullptr, 10));
        } else {
          return usage();
        }
      }
      return cmd_replay(args[1], flags, /*table=*/cmd == "stats");
    }
    if (cmd == "diff") {
      if (args.size() < 3 || args.size() > 4) return usage();
      bool no_faults = false;
      if (args.size() == 4) {
        if (args[3] != "--no-faults") return usage();
        no_faults = true;
      }
      return cmd_diff(args[1], args[2], no_faults);
    }
    return usage();
  } catch (const trace::TraceIoError& e) {
    std::fprintf(stderr, "vgtrace: %s\n", e.what());
    return kExitIo;
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr, "vgtrace: %s\n", e.what());
    return kExitCorrupt;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vgtrace: %s\n", e.what());
    return kExitError;
  }
}
