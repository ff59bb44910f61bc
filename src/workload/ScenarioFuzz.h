#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/Scenario.h"

/// \file ScenarioFuzz.h
/// The generative invariant harness: for each fuzz seed, generate a scenario
/// (scenario::Generator), round-trip it through the `.scn` serializer +
/// loader, run it, and assert the chaos/degradation invariants plus trace
/// round-trip equivalence (TraceReader vs BatchDecoder postings parity,
/// per-record Replayer vs columnar BatchReplayer, live guard vs replay).
/// A failing seed reports a one-line repro: `vgscn run --seed N`.

namespace vg::trace {
class TraceReader;
struct ColumnBatch;
}  // namespace vg::trace

namespace vg::workload {

/// How \p batch differs from \p reader, both decoded from the same bytes:
/// metadata, flows and their begin rows, the DNS and fault side tables with
/// their times, each flow's postings against that flow's upstream data
/// records in stream order (time, length, row, length class, TLS bit), the
/// tallies, size() and end_time. Empty when they agree.
std::string column_parity_error(const trace::TraceReader& reader,
                                const trace::ColumnBatch& batch);

/// Every invariant violation found while checking \p spec (empty = clean).
/// Each entry is a single human-readable sentence naming the violated
/// invariant and the observed values.
std::vector<std::string> check_scenario(const scenario::ScenarioSpec& spec);

struct FuzzFailure {
  std::uint64_t seed{0};
  std::string message;  // violations joined, with the vgscn repro line
};

struct FuzzReport {
  std::uint64_t first_seed{0};
  std::uint64_t count{0};
  // Coverage tallies, so a distribution regression in the generator (e.g.
  // every seed collapsing to one shape) is visible in test logs.
  std::uint64_t scripted{0};
  std::uint64_t home_captures{0};
  std::uint64_t chain_captures{0};
  std::uint64_t synthetic{0};
  std::uint64_t faults_injected{0};
  std::uint64_t replayed_spikes{0};
  std::uint64_t populations{0};
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Generates and checks seeds [first_seed, first_seed + count), serially.
FuzzReport fuzz_scenarios(std::uint64_t first_seed, std::uint64_t count);

/// Hook for the population-parity check on scripted specs with a
/// `[population]`. vg_workload cannot link vg_fleet (fleet links workload),
/// so the fleet library registers its check via
/// fleet::register_fuzz_population_check() and the fuzzer calls through this
/// seam. Returns invariant violations (empty = clean). Unset by default:
/// harnesses that don't link vg_fleet simply skip the population check.
using PopulationCheck =
    std::function<std::vector<std::string>(const scenario::ScenarioSpec&)>;
void set_population_check(PopulationCheck check);

}  // namespace vg::workload
