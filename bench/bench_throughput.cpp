/// Throughput bench — the perf trajectory tracker for the simulator kernel
/// and the batch runner, introduced alongside the parallel trial runner.
///
/// Workload: the full Tables II-IV batch (3 testbeds x 2 speakers x 2
/// deployment locations = 12 independent trials of the 7-day protocol), run
/// twice — serially on the calling thread, then fanned across cores with
/// sim::BatchRunner — and cross-checked for bit-identical results.
///
/// Reports home-days/sec (serial, the simulator's headline: trials x days
/// over serial wall time), trials/sec (batched, the fleet metric) and, for
/// information only, kernel events and allocs/event (global allocator
/// pressure per event). Events/sec is not reported: the stair sensor sleeps
/// while nobody walks, so the event count no longer tracks the work a
/// home-day takes. Plus a machine-readable BENCH_JSON line:
///   BENCH_JSON {"bench":"throughput",...}
///
/// Usage: bench_throughput [--days N] [--workers N]
///   --days     simulated days per trial (default 7, the paper protocol)
///   --workers  pool size (default hardware_concurrency)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "simcore/BatchRunner.h"
// Counting operator new/delete (one TU per binary): global allocations during
// the serial run divided by kernel events gives allocs/event.
#include "testutil/CountingAllocator.h"
#include "workload/TrialRunner.h"

using namespace vg;
using workload::WorldConfig;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool identical(const std::vector<workload::TrialResult>& a,
               const std::vector<workload::TrialResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.confusion.tp != y.confusion.tp || x.confusion.fn != y.confusion.fn ||
        x.confusion.tn != y.confusion.tn || x.confusion.fp != y.confusion.fp) {
      return false;
    }
    if (x.executed_events != y.executed_events) return false;
    if (x.outcomes.size() != y.outcomes.size()) return false;
    for (std::size_t k = 0; k < x.outcomes.size(); ++k) {
      const auto& ox = x.outcomes[k];
      const auto& oy = y.outcomes[k];
      if (ox.id != oy.id || ox.malicious != oy.malicious ||
          ox.executed != oy.executed || ox.when != oy.when ||
          ox.issuer != oy.issuer) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int days = 7;
  unsigned workers = 0;  // 0 -> hardware_concurrency
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--days") == 0) days = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<unsigned>(std::atoi(argv[i + 1]));
    }
  }
  if (days < 1) days = 1;

  bench::header("Throughput: serial home-days/sec and batched trials/sec",
                "perf tracking (Tables II-IV batch)");

  std::vector<workload::TrialSpec> specs;
  for (const auto& [kind, owners, watch, seed0] :
       {std::tuple{WorldConfig::TestbedKind::kHouse, 2, false,
                   std::uint64_t{200}},
        std::tuple{WorldConfig::TestbedKind::kApartment, 2, false,
                   std::uint64_t{300}},
        std::tuple{WorldConfig::TestbedKind::kOffice, 1, true,
                   std::uint64_t{400}}}) {
    for (auto& spec :
         workload::table_matrix(kind, owners, watch, seed0, sim::days(days))) {
      specs.push_back(std::move(spec));
    }
  }

  std::vector<workload::TrialResult> serial, batched;
  std::size_t serial_allocs = 0;
  const double serial_s = wall_seconds([&] {
    serial_allocs = testutil::allocations_during(
        [&] { serial = workload::run_trials_serial(specs); });
  });

  sim::BatchRunner pool{workers};
  const double batch_s =
      wall_seconds([&] { batched = workload::run_trials(specs, pool); });

  std::uint64_t events = 0;
  double sim_secs = 0;
  for (const auto& r : serial) {
    events += r.executed_events;
    sim_secs += r.sim_seconds;
  }
  const bool match = identical(serial, batched);
  const double home_days_ps =
      static_cast<double>(specs.size()) * days / serial_s;
  const double trials_ps = static_cast<double>(specs.size()) / batch_s;
  const double speedup = serial_s / batch_s;
  const double allocs_per_event =
      events ? static_cast<double>(serial_allocs) / static_cast<double>(events)
             : 0.0;

  std::printf("\ntrials               : %zu (%d-day protocol each)\n",
              specs.size(), days);
  std::printf("kernel events        : %llu (%.0f simulated seconds)\n",
              static_cast<unsigned long long>(events), sim_secs);
  std::printf("serial wall          : %.3f s  -> %.1f home-days/sec\n",
              serial_s, home_days_ps);
  std::printf("batched wall         : %.3f s  -> %.2f trials/sec on %u workers\n",
              batch_s, trials_ps, pool.worker_count());
  std::printf("speedup              : %.2fx\n", speedup);
  std::printf("global allocations   : %zu serial  -> %.3f allocs/event\n",
              serial_allocs, allocs_per_event);
  std::printf("serial/batch results : %s\n",
              match ? "bit-identical" : "MISMATCH");

  std::printf(
      "\nBENCH_JSON {\"bench\":\"throughput\",\"trials\":%zu,\"days\":%d,"
      "\"workers\":%u,\"serial_seconds\":%.3f,\"batch_seconds\":%.3f,"
      "\"events\":%llu,\"home_days_per_sec_serial\":%.2f,"
      "\"trials_per_sec_batch\":%.3f,\"speedup\":%.3f,"
      "\"serial_allocs\":%zu,\"allocs_per_event\":%.3f,\"identical\":%s}\n",
      specs.size(), days, pool.worker_count(), serial_s, batch_s,
      static_cast<unsigned long long>(events), home_days_ps, trials_ps, speedup,
      serial_allocs, allocs_per_event, match ? "true" : "false");
  return match ? 0 : 1;
}
