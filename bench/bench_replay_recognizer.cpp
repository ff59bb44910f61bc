/// Offline recognizer throughput over a wire trace.
///
/// Replays a captured scenario through both recognizer back-ends with no
/// simulation in the loop, so the per-record cost is measured in isolation:
///
///   * legacy — trace::Replayer over TraceReader's record structs (the
///     per-record oracle);
///   * batch  — trace::BatchReplayer over trace::BatchDecoder's flow-major
///     postings (see BatchDecoder.h / BatchReplayer.h).
///
/// Both parse/decode throughput (strict validation incl. per-frame CRC) and
/// replay throughput are reported per back-end, and the two back-ends'
/// results are asserted equal on every run before any number is printed.
///
/// Usage: bench_replay_recognizer [scenario]   (default: house_echo)
///
/// A capture-loop scenario runs kCommands commands, the size of the
/// repository benchmark's replay captures (~1.8 MB for house_echo): a golden
/// trace of a few KB fits in L1 and would flatter the decoder.
///
/// Emits a machine-readable line:
///   BENCH_JSON {"bench":"replay_recognizer",...,"records_per_sec":...,
///               "records_per_sec_batch":...,"decode_ns_per_record":...}

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "trace/BatchDecoder.h"
#include "trace/BatchReplayer.h"
#include "trace/Replayer.h"
#include "trace/TraceReader.h"
#include "workload/ScenarioRun.h"
#include "workload/TraceScenarios.h"

using namespace vg;

namespace {
constexpr int kCommands = 3000;
}  // namespace

int main(int argc, char** argv) {
  const std::string scenario = argc > 1 ? argv[1] : "house_echo";
  bench::header("Replay recognizer throughput (" + scenario + ")",
                "offline harness for the recognition logic of §IV-B1");

  std::uint64_t seed = 0;
  for (const workload::TraceScenario& s : workload::trace_scenarios()) {
    if (s.name == scenario) seed = s.default_seed;
  }
  scenario::ScenarioSpec spec = workload::trace_scenario_spec(scenario, seed);
  if (spec.schedule.loop_commands > 0) spec.schedule.loop_commands = kCommands;
  const workload::TraceScenarioResult cap =
      workload::run_scenario_capture(spec);
  using clock = std::chrono::steady_clock;
  const auto span = std::span<const std::uint8_t>{cap.bytes.data(),
                                                  cap.bytes.size()};

  // Parse throughput, record-struct path.
  int parse_iters = 0;
  double parse_s = 0;
  std::size_t frames = 0;
  {
    const auto t0 = clock::now();
    do {
      const trace::TraceReader t = trace::TraceReader::parse(span);
      frames = t.records().size();
      ++parse_iters;
      parse_s = std::chrono::duration<double>(clock::now() - t0).count();
    } while (parse_s < 0.2 || parse_iters < 10);
  }
  const double parse_mb_s =
      static_cast<double>(cap.bytes.size()) * parse_iters / parse_s / 1e6;

  // Decode throughput, columnar path (same validation, reused columns).
  int decode_iters = 0;
  double decode_s = 0;
  trace::ColumnBatch batch;
  {
    const auto t0 = clock::now();
    do {
      trace::BatchDecoder::decode(span, batch);
      ++decode_iters;
      decode_s = std::chrono::duration<double>(clock::now() - t0).count();
    } while (decode_s < 0.2 || decode_iters < 10);
  }
  const double decode_mb_s =
      static_cast<double>(cap.bytes.size()) * decode_iters / decode_s / 1e6;

  const trace::TraceReader t = trace::TraceReader::parse(span);
  const trace::Replayer replayer;
  trace::ReplayResult res = replayer.run(t);  // warm-up + result snapshot

  int iters = 0;
  double replay_s = 0;
  {
    const auto t0 = clock::now();
    do {
      res = replayer.run(t);
      ++iters;
      replay_s = std::chrono::duration<double>(clock::now() - t0).count();
    } while (replay_s < 0.5 || iters < 10);
  }
  const double records_per_sec =
      static_cast<double>(frames) * iters / replay_s;

  trace::BatchReplayer batch_replayer;
  trace::BatchReplayResult bres = batch_replayer.run(batch);  // warm-up
  int batch_iters = 0;
  double batch_s = 0;
  {
    const auto t0 = clock::now();
    do {
      batch_replayer.run(batch, bres);
      ++batch_iters;
      batch_s = std::chrono::duration<double>(clock::now() - t0).count();
    } while (batch_s < 0.5 || batch_iters < 10);
  }
  const double batch_records_per_sec =
      static_cast<double>(frames) * batch_iters / batch_s;

  // The speedup only counts if the answers agree: diff the batch result
  // against the oracle before reporting anything.
  const trace::ReplayResult widened = bres.to_replay_result();
  if (widened.spikes.size() != res.spikes.size() ||
      widened.commands != res.commands ||
      widened.responses != res.responses ||
      widened.unknowns != res.unknowns ||
      widened.heartbeats != res.heartbeats ||
      widened.avs_signature_updates != res.avs_signature_updates) {
    std::fprintf(stderr,
                 "FATAL: batch replay diverges from the oracle on %s\n",
                 scenario.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < res.spikes.size(); ++i) {
    if (widened.spikes[i].cls != res.spikes[i].cls ||
        widened.spikes[i].rule != res.spikes[i].rule ||
        widened.spikes[i].start != res.spikes[i].start ||
        widened.spikes[i].prefix != res.spikes[i].prefix) {
      std::fprintf(stderr, "FATAL: batch spike %zu diverges on %s\n", i,
                   scenario.c_str());
      return 1;
    }
  }

  std::printf("trace: %zu bytes, %zu frames, %llu flows, %s of wire time\n",
              cap.bytes.size(), frames,
              static_cast<unsigned long long>(res.flows),
              sim::format_duration(res.end_time - sim::TimePoint{}).c_str());
  std::printf("parse : %7.1f MB/s (%d iters)  [record structs]\n", parse_mb_s,
              parse_iters);
  const double decode_ns_per_record =
      decode_s * 1e9 / (static_cast<double>(frames) * decode_iters);
  std::printf("decode: %7.1f MB/s (%d iters, %.1f ns/record)  [postings]\n",
              decode_mb_s, decode_iters, decode_ns_per_record);
  std::printf("replay legacy: %10.0f records/s (%d iters, %.3f s)\n",
              records_per_sec, iters, replay_s);
  std::printf("replay batch : %10.0f records/s (%d iters, %.3f s)  %.1fx\n",
              batch_records_per_sec, batch_iters, batch_s,
              batch_records_per_sec / records_per_sec);
  std::printf("spikes per replay: %zu (%llu command, %llu response, %llu "
              "unknown)\n",
              res.spikes.size(), static_cast<unsigned long long>(res.commands),
              static_cast<unsigned long long>(res.responses),
              static_cast<unsigned long long>(res.unknowns));

  std::printf(
      "\nBENCH_JSON {\"bench\":\"replay_recognizer\",\"scenario\":\"%s\","
      "\"frames\":%zu,\"bytes\":%zu,\"iters\":%d,"
      "\"records_per_sec\":%.0f,\"parse_mb_per_sec\":%.1f,"
      "\"records_per_sec_batch\":%.0f,\"decode_mb_per_sec\":%.1f,"
      "\"decode_ns_per_record\":%.1f,\"batch_speedup\":%.2f,"
      "\"spikes\":%zu}\n",
      scenario.c_str(), frames, cap.bytes.size(), iters, records_per_sec,
      parse_mb_s, batch_records_per_sec, decode_mb_s, decode_ns_per_record,
      batch_records_per_sec / records_per_sec, res.spikes.size());
  return 0;
}
