/// Repository benchmark program: runs one workload as a closed batch and
/// prints one JSON line of raw measurements (perfbench/run.py turns them into
/// medians, spreads and the result line).
///
///   vgbench --workload paper_week|fleet|replay --seed N --seconds S
///
/// Built twice from this file (see CMakeLists.txt). The plain build measures
/// the end-to-end metrics. The VGBENCH_TRACED build also records spans around
/// the calls into each module, attaches packet observers and counts global
/// allocations; every per-layer figure comes from it. Spans live here, in the
/// benchmark's own code: the modules under src/ are not instrumented.
///
/// Every workload first does its set-up (repeated, so its median is stable),
/// then checks its outputs, then repeats identical timed passes until the
/// time budget is spent. Sim-clock figures and counts come from the reference
/// pass; every later pass must reproduce its fingerprint.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "fleet/FleetRunner.h"
#include "fleet/WorldTemplate.h"
#include "scenario/ScenarioLoader.h"
#include "trace/BatchDecoder.h"
#include "trace/BatchReplayer.h"
#include "workload/Experiment.h"
#include "workload/ScenarioRun.h"
#include "workload/TraceScenarios.h"
#include "workload/TrialRunner.h"

#ifdef VGBENCH_TRACED
// Defines the replaceable global operator new/delete (one TU per binary).
#include "testutil/CountingAllocator.h"
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

using namespace vg;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time consumed by the whole process (all threads), in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t allocation_count() {
#ifdef VGBENCH_TRACED
  return testutil::allocation_count();
#else
  return 0;
#endif
}

// --- run layout --------------------------------------------------------------

/// The fleet runs its 2 shards one after the other on 1 worker thread. On
/// the shared benchmark host a pass on 2 workers waits for the slower
/// worker, and its throughput spread too widely from run to run.
constexpr unsigned kFleetWorkers = 1;
constexpr unsigned kFleetShards = 2;
/// Fleet population per pass: one pass takes about 1.5 s on 1 worker.
constexpr std::uint64_t kFleetHomes = 4000;
/// Homes in the serial-vs-sharded parity slice.
constexpr std::uint64_t kParityHomes = 64;
/// Homes built outside the fleet runner in the traced run, to time world
/// construction and calibration the way a fleet home does it.
constexpr std::uint64_t kFleetSampleHomes = 32;
/// FleetRunner boots each home for 8 s before the scripted horizon starts;
/// a home lives boot + drain of simulated time.
constexpr double kFleetBootS = 8.0;
/// The per-home memory settings FleetRunner gives its homes.
constexpr std::size_t kFleetHomeArenaChunk = 8 * 1024;
constexpr std::size_t kFleetHomeCacheSlots = 64;
/// Commands per capture in the replay workload (the golden traces use 8),
/// and how often one timed pass decodes and adjudicates each capture, so a
/// pass lasts about half a second and averages out brief speed changes of a
/// shared host.
constexpr int kReplayCommands = 3000;
constexpr int kReplayRepeats = 32;
/// Set-up repetitions: set-up is timed several times and reported as a median.
constexpr int kSetups = 3;
/// Minimum timed passes, even when one pass outlasts the time budget.
constexpr int kMinPasses = 3;
/// Paper floor for Tables II-IV (EXPERIMENTS.md: accuracy >= 97.1%).
constexpr double kAccuracyFloor = 0.971;

// --- spans -------------------------------------------------------------------

/// In-memory span log. Each span has a name, start and end (seconds since
/// the log began) and the index of the span that was open when it started.
/// The untraced build records nothing and adds no clock reads.
class SpanLog {
 public:
  template <class Fn>
  decltype(auto) operator()(const char* name, Fn&& fn) {
    if constexpr (!kTraced) {
      return fn();
    } else {
      const int parent = open_;
      const int self = static_cast<int>(spans_.size());
      spans_.push_back({name, seconds_since(origin_), 0.0, parent});
      open_ = self;
      struct Close {
        SpanLog* log;
        int self;
        int parent;
        ~Close() {
          log->spans_[static_cast<std::size_t>(self)].end =
              seconds_since(log->origin_);
          log->open_ = parent;
        }
      } close{this, self, parent};
      return fn();
    }
  }

  struct Summary {
    std::size_t n{0};
    double total_s{0};
    double self_s{0};
    std::vector<double> durations;
  };

  /// Per-name totals; self time excludes the time covered by child spans.
  [[nodiscard]] std::map<std::string, Summary> summarize() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Summary& sum = out[s.name];
      ++sum.n;
      sum.total_s += s.end - s.start;
      sum.self_s += s.end - s.start - child_time[i];
      sum.durations.push_back(s.end - s.start);
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
  int open_{-1};
};

// --- small helpers -----------------------------------------------------------

/// Nearest-rank percentile of \p v (sorted in place); 0 when empty.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Reads one "<key> <n> kB" line of /proc/self/status, in MiB; 0 if absent.
double proc_status_mib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, n) == 0 && line[n] == ':') {
      kib = std::strtod(line + n + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// High-water resident set of this process image, less the file-backed
/// pages still mapped at the end (the program's own code and data, whose
/// residency depends on the page cache rather than on the workload). VmHWM,
/// not getrusage's ru_maxrss: the latter survives execve, so a child would
/// inherit the launching interpreter's peak.
double peak_rss_mib() {
  return proc_status_mib("VmHWM") - proc_status_mib("RssFile");
}

double current_rss_mib() { return proc_status_mib("VmRSS"); }

void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Keeps glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold whenever a mapped block is freed, so later large
/// blocks come from the heap, where freed space stays resident. Which blocks
/// that happens to depends on the order of allocations, so replay's peak
/// resident set read 15.5 MiB for some seeds and 19.3 MiB for others with
/// captures of the same size. With a fixed threshold it read 14.1-14.2 MiB.
void fix_mmap_threshold() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

/// Moves the calling thread round-robin over the CPUs the process may use.
/// On a shared host each CPU runs at its own, slowly changing speed, and a
/// single-threaded pass left on one CPU inherits that CPU's speed for the
/// whole run. Stepping to the next CPU between units of work makes every
/// pass sample all CPUs alike. The destructor restores the original set.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_{0};
};

/// splitmix64: spreads a small workload seed into unrelated world seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Flat JSON object writer for the result line (numbers, bools, strings,
/// nested objects).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& num(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.text()); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
    return *this;
  }
  std::string body_;
};

/// What every workload hands back to main().
struct Result {
  Json layout;  // run shape and input sizes
  std::vector<double> setup_s;
  std::vector<double> pass_s;
  std::vector<double> pass_cpu_s;  // process CPU time of each timed pass
  /// Work done by one pass (identical for every pass of a seed).
  double homes{0};
  double home_days{0};
  double records{0};
  double peak_rss_mib{0};
  Json host;    // other host-clock figures
  Json sim;     // sim-clock metrics of the reference pass
  Json counts;  // per-layer counts and ratios
  std::map<std::string, bool> checks;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
};

/// Drives the common shape of a workload: \p setup(i) runs kSetups times,
/// each time preparing the inputs and running the reference pass; then
/// \p pass repeats until \p budget_s has elapsed (at least kMinPasses
/// times), each inside a "pass" span. Both return whether their output
/// matched the first set-up's reference. Returns the number of passes,
/// reference passes included, that did not.
template <class Setup, class Pass>
std::uint64_t drive(Result& r, SpanLog& span, double budget_s, Setup&& setup,
                    Pass&& pass) {
  std::uint64_t bad = 0;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    bad += setup(i) ? 0 : 1;
    r.setup_s.push_back(seconds_since(t0));
  }
  const auto t_begin = Clock::now();
  while (r.pass_s.size() < static_cast<std::size_t>(kMinPasses) ||
         seconds_since(t_begin) < budget_s) {
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    bad += span("pass", pass) ? 0 : 1;
    r.pass_s.push_back(seconds_since(t0));
    r.pass_cpu_s.push_back(process_cpu_s() - c0);
  }
  r.peak_rss_mib = peak_rss_mib();
  return bad;
}

/// Op accounting: every pass (reference passes included) attempts \p ops;
/// a pass that did not match the reference fails all of them, and every pass
/// fails the \p leaked ops it left unresolved or held.
void tally_ops(Result& r, const std::string& workload, std::uint64_t bad,
               std::uint64_t ops, std::uint64_t leaked) {
  const std::uint64_t passes = r.pass_s.size() + r.setup_s.size();
  r.checks[workload + ".passes_identical"] = bad == 0;
  r.attempted = ops * passes;
  r.failed = std::min(r.attempted, bad * ops + leaked * passes);
}

// --- paper_week --------------------------------------------------------------

/// The Tables II-IV matrix: 3 testbeds x 2 speakers x 2 deployments, each
/// running the 7-day protocol, seeded from the workload seed.
std::vector<workload::TrialSpec> paper_week_specs(std::uint64_t seed) {
  using workload::WorldConfig;
  std::uint64_t seed0 = 1 + (mix(seed) % 1'000'000'000ULL) * 12;
  std::vector<workload::TrialSpec> specs;
  struct Bed {
    WorldConfig::TestbedKind kind;
    int owners;
    bool watch;
  };
  for (const Bed& b : {Bed{WorldConfig::TestbedKind::kHouse, 2, false},
                       Bed{WorldConfig::TestbedKind::kApartment, 2, false},
                       Bed{WorldConfig::TestbedKind::kOffice, 1, true}}) {
    for (auto& s : workload::table_matrix(b.kind, b.owners, b.watch, seed0,
                                          sim::days(7))) {
      specs.push_back(std::move(s));
    }
    seed0 += 4;
  }
  return specs;
}

/// Everything one pass of paper_week observes.
struct WeekTally {
  std::uint64_t commands{0};
  std::uint64_t fp{0}, fn{0}, tp{0}, tn{0};
  std::uint64_t events{0};
  std::uint64_t unresolved{0};
  std::uint64_t held_outstanding{0};
  std::uint64_t spikes{0}, held{0}, released{0}, blocked{0}, forced{0};
  std::uint64_t queries{0}, fcm_retries{0}, late_reports{0};
  std::uint64_t fcm_pushes{0}, fcm_dropped{0};
  std::uint64_t motion{0};
  std::uint64_t cache_hits{0}, cache_misses{0};
  std::uint64_t link_dropped{0}, flap_dropped{0};
  std::uint64_t reconnects{0}, sessions_killed{0}, executed{0};
  std::uint64_t guard_packets{0};
  std::size_t arena_reserved_max{0};
  std::vector<double> guard_delay_ms, query_rtt_ms, hold_ms;

  /// Deterministic fingerprint compared across passes.
  [[nodiscard]] bool same_outcome(const WeekTally& o) const {
    return commands == o.commands && fp == o.fp && fn == o.fn && tp == o.tp &&
           tn == o.tn && events == o.events && spikes == o.spikes &&
           held == o.held && queries == o.queries &&
           guard_delay_ms == o.guard_delay_ms;
  }
};

WeekTally run_week_pass(const std::vector<workload::TrialSpec>& specs,
                        sim::Arena& arena, SpanLog& span, CpuRotation& cpus) {
  WeekTally t;
  for (const workload::TrialSpec& spec : specs) {
    cpus.step();
    // TrialRunner's episode contract: one arena, reset between trials, after
    // the previous trial's world is gone.
    arena.reset();
    workload::WorldConfig cfg = spec.world;
    cfg.arena = &arena;
    auto world = span("workload.world_build_ms", [&] {
      return std::make_unique<workload::SmartHomeWorld>(cfg);
    });
    std::uint64_t packets = 0;
    if constexpr (kTraced) {
      world->guard().add_observer(
          [&packets](const net::Packet&, net::Direction) { ++packets; });
    }
    span("workload.calibrate_ms", [&] { world->calibrate(); });
    workload::ExperimentDriver driver{*world, spec.experiment};
    span("simcore.run_s", [&] { driver.run(); });

    const analysis::ConfusionMatrix cm = driver.confusion();
    t.commands += driver.outcomes().size();
    t.fp += cm.fp;
    t.fn += cm.fn;
    t.tp += cm.tp;
    t.tn += cm.tn;
    t.events += world->sim().executed_events();
    guard::GuardBox& g = world->guard();
    t.unresolved += g.unresolved_spikes();
    t.held_outstanding += g.held_outstanding();
    t.released += g.commands_released();
    t.blocked += g.commands_blocked();
    t.forced += g.forced_open() + g.forced_closed();
    for (const guard::SpikeEvent& ev : g.spike_events()) {
      ++t.spikes;
      if (ev.held) {
        ++t.held;
        t.hold_ms.push_back(ev.hold_seconds * 1e3);
      }
      if (ev.queried && ev.outcome != guard::SpikeOutcome::kPending) {
        t.guard_delay_ms.push_back((ev.verdict_time - ev.start).seconds() *
                                   1e3);
      }
    }
    guard::RssiDecisionModule& d = world->decision();
    t.queries += d.queries();
    t.fcm_retries += d.fcm_retries();
    t.late_reports += d.late_reports();
    for (const double s : d.latencies_s()) t.query_rtt_ms.push_back(s * 1e3);
    t.fcm_pushes += world->fcm().pushes_sent();
    t.fcm_dropped += world->fcm().pushes_dropped();
    if (home::MotionSensor* m = world->motion_sensor()) {
      t.motion += m->activations();
    }
    for (int i = 0; i < world->owner_count(); ++i) {
      const radio::PropagationCache& c = world->device(i).propagation_cache();
      t.cache_hits += c.hits();
      t.cache_misses += c.misses();
    }
    t.link_dropped += world->lan_link().dropped_packets() +
                      world->wan_link().dropped_packets();
    t.flap_dropped +=
        world->lan_link().flap_dropped() + world->wan_link().flap_dropped();
    if (const speaker::EchoDotModel* e = world->echo()) {
      t.reconnects += e->reconnects();
    }
    t.sessions_killed += world->cloud().total_sessions_killed();
    t.executed += world->cloud().all_executed().size();
    t.guard_packets += packets;
    t.arena_reserved_max =
        std::max(t.arena_reserved_max, arena.reserved_bytes());
  }
  return t;
}

Result run_paper_week(std::uint64_t seed, double budget_s, SpanLog& span) {
  Result r;
  CpuRotation cpus;
  sim::Arena arena;
  std::vector<workload::TrialSpec> specs;
  WeekTally ref;
  std::size_t allocs = 0;
  std::uint64_t timed = 0;
  const std::uint64_t bad = drive(
      r, span, budget_s,
      [&](int i) {
        specs = paper_week_specs(seed);
        WeekTally t = run_week_pass(specs, arena, span, cpus);
        if (i == 0) ref = std::move(t);
        return i == 0 || t.same_outcome(ref);
      },
      [&] {
        const std::size_t a0 = allocation_count();
        const bool same =
            run_week_pass(specs, arena, span, cpus).same_outcome(ref);
        allocs += allocation_count() - a0;
        ++timed;
        return same;
      });
  tally_ops(r, "paper_week", bad, ref.commands,
            ref.unresolved + ref.held_outstanding);

  double days = 0;
  for (const auto& s : specs) days += s.experiment.duration.seconds() / 86400.0;
  r.homes = static_cast<double>(specs.size());
  r.home_days = days;

  const double accuracy =
      ref.commands ? static_cast<double>(ref.tp + ref.tn) /
                         static_cast<double>(ref.commands)
                   : 0.0;
  r.checks["paper_week.no_unresolved_spike"] = ref.unresolved == 0;
  r.checks["paper_week.no_held_packet"] = ref.held_outstanding == 0;
  r.checks["paper_week.accuracy_floor"] = accuracy >= kAccuracyFloor;
  r.checks["paper_week.commands_issued"] = ref.commands > 0;

  r.layout.num("seed", seed)
      .num("workers", std::uint64_t{1})
      .num("shards", std::uint64_t{1})
      .num("resident_cap", std::uint64_t{1})
      .num("live_homes", std::uint64_t{1})
      .num("input_items", static_cast<std::uint64_t>(specs.size()))
      .num("trials", static_cast<std::uint64_t>(specs.size()))
      .num("days_per_trial", std::uint64_t{7})
      .num("commands", ref.commands);

  std::vector<double> gd = ref.guard_delay_ms, rtt = ref.query_rtt_ms,
                      hold = ref.hold_ms;
  r.sim.num("guard_delay_ms_p50", percentile(gd, 0.50))
      .num("guard_delay_ms_p99", percentile(gd, 0.99))
      .num("guard_delay_ms_samples", static_cast<std::uint64_t>(gd.size()))
      .num("query_rtt_ms_p50", percentile(rtt, 0.50))
      .num("query_rtt_ms_p99", percentile(rtt, 0.99))
      .num("query_rtt_ms_samples", static_cast<std::uint64_t>(rtt.size()))
      .num("cmd_error_rate",
           ref.commands ? static_cast<double>(ref.fp + ref.fn) /
                              static_cast<double>(ref.commands)
                        : 0.0)
      .num("accuracy", accuracy);

  const std::uint64_t lookups = ref.cache_hits + ref.cache_misses;
  r.counts
      .num("simcore.events_per_home_day",
           static_cast<double>(ref.events) / days)
      .num("simcore.events_per_home", static_cast<double>(ref.events) / r.homes)
      .num("simcore.allocs_per_event",
           static_cast<double>(allocs) /
               static_cast<double>(ref.events * timed))
      .num("simcore.arena_kib_per_home",
           static_cast<double>(ref.arena_reserved_max) / 1024.0)
      .num("home.motion_activations", ref.motion)
      .num("home.fcm_pushes", ref.fcm_pushes)
      .num("home.fcm_dropped", ref.fcm_dropped)
      .num("radio.rssi_lookups", lookups)
      .num("radio.cache_hit_ratio",
           lookups ? static_cast<double>(ref.cache_hits) /
                         static_cast<double>(lookups)
                   : 0.0)
      .num("netsim.guard_packets_per_home_day",
           static_cast<double>(ref.guard_packets) / days)
      .num("netsim.link_dropped", ref.link_dropped)
      .num("netsim.flap_dropped", ref.flap_dropped)
      .num("speaker.reconnects", ref.reconnects)
      .num("cloud.sessions_killed", ref.sessions_killed)
      .num("cloud.commands_executed", ref.executed)
      .num("voiceguard.spikes", ref.spikes)
      .num("voiceguard.held", ref.held)
      .num("voiceguard.released", ref.released)
      .num("voiceguard.blocked", ref.blocked)
      .num("voiceguard.forced", ref.forced)
      .num("voiceguard.hold_ms_p50", percentile(hold, 0.50))
      .num("voiceguard.hold_ms_p99", percentile(hold, 0.99))
      .num("voiceguard.decision_queries", ref.queries)
      .num("voiceguard.fcm_retries", ref.fcm_retries)
      .num("voiceguard.late_reports", ref.late_reports);
  return r;
}

// --- fleet -------------------------------------------------------------------

/// bench_fleet's apartment population: 2 owners, three scripted commands,
/// one LAN flap, 1.5 s command jitter, 20% attack flips.
std::string fleet_scn(std::uint64_t seed, std::uint64_t homes) {
  std::ostringstream s;
  s << "[scenario]\nname = perfbench-fleet\nkind = home\nseed = " << seed
    << "\nspeaker = echo_dot\n\n[home]\ntestbed = apartment\nowners = 2\n\n"
       "[schedule]\ncommand = 10 legit\ncommand = 25 attack\n"
       "command = 40 legit\ndrain_s = 75\n\n[faults]\nlink = lan flap 15 2\n\n"
       "[population]\nhomes = "
    << homes << "\ncommand_jitter_s = 1.5\nattack_flip = 0.2\n";
  return s.str();
}

Result run_fleet(std::uint64_t seed, double budget_s, SpanLog& span) {
  Result r;
  const std::string text =
      fleet_scn(1 + mix(seed) % 1'000'000'000ULL, kFleetHomes);
  fleet::FleetConfig cfg;
  cfg.homes = kFleetHomes;
  cfg.shards = kFleetShards;
  cfg.workers = kFleetWorkers;
  cfg.max_resident = 0;  // every home of a shard resident at once

  // run_fleet starts its worker thread per call, and a new thread inherits
  // the caller's CPU, so stepping before each call rotates the worker.
  CpuRotation cpus;
  std::unique_ptr<fleet::WorldTemplate> tmpl;
  fleet::AggregateStats ref;
  fleet::WakeTelemetry tel;
  double rss_growth_mib = 0;
  std::size_t allocs = 0;
  std::uint64_t timed = 0;
  const std::uint64_t bad = drive(
      r, span, budget_s,
      [&](int i) {
        tmpl.reset();
        scenario::ScenarioSpec spec = span("scenario.load_ms", [&] {
          return scenario::ScenarioLoader::load(text);
        });
        tmpl = span("fleet.template_ms", [&] {
          return std::make_unique<fleet::WorldTemplate>(std::move(spec));
        });
        cpus.step();
        if (i > 0) {
          return span("fleet.run_s",
                      [&] { return fleet::run_fleet(*tmpl, cfg); }) == ref;
        }
        // The first reference pass also measures memory: RSS growth over
        // the run, divided later by the homes live at the same time.
        release_free_heap();
        const double rss0 = current_rss_mib();
        ref = span("fleet.run_s",
                   [&] { return fleet::run_fleet(*tmpl, cfg, &tel); });
        rss_growth_mib = peak_rss_mib() - rss0;
        return true;
      },
      [&] {
        cpus.step();
        const std::size_t a0 = allocation_count();
        const bool same = span("fleet.run_s", [&] {
                            return fleet::run_fleet(*tmpl, cfg);
                          }) == ref;
        allocs += allocation_count() - a0;
        ++timed;
        return same;
      });
  const fleet::AggregateStats::Counters& c = ref.counters();
  tally_ops(r, "fleet", bad, c.commands,
            c.unresolved_spikes + c.held_outstanding);

  // Output checks outside the timed region: sharded equals serial, home for
  // home, and every home ran with nothing left pending.
  {
    fleet::FleetConfig pcfg;
    pcfg.homes = kParityHomes;
    pcfg.shards = kFleetShards;
    pcfg.workers = kFleetWorkers;
    r.checks["fleet.sharded_equals_serial"] =
        fleet::run_fleet(*tmpl, pcfg) ==
        fleet::run_fleet_serial(*tmpl, 0, kParityHomes);
  }
  r.checks["fleet.no_unresolved_spike"] = c.unresolved_spikes == 0;
  r.checks["fleet.no_held_packet"] = c.held_outstanding == 0;
  r.checks["fleet.all_homes_ran"] = c.homes == kFleetHomes;

  const double drain_s = tmpl->base().schedule.drain.seconds();
  r.homes = static_cast<double>(kFleetHomes);
  r.home_days = r.homes * (kFleetBootS + drain_s) / 86400.0;
  const std::uint64_t live_homes =
      tel.resident_cap * std::min<std::uint64_t>(kFleetShards, tel.workers);

  r.layout.num("seed", seed)
      .num("workers", static_cast<std::uint64_t>(tel.workers))
      .num("shards", static_cast<std::uint64_t>(kFleetShards))
      .num("resident_cap", tel.resident_cap)
      .num("live_homes", live_homes)
      .num("input_items", kFleetHomes)
      .num("homes", kFleetHomes)
      .num("commands", c.commands);
  r.host.num("rss_kib_per_live_home",
             rss_growth_mib * 1024.0 / static_cast<double>(live_homes));

  const fleet::AggregateStats::Percentiles p = ref.latency_percentiles();
  r.sim.num("query_rtt_ms_p50", p.p50 * 1e3)
      .num("query_rtt_ms_p99", p.p99 * 1e3)
      .num("query_rtt_ms_samples", ref.latency_samples());

  // Traced run only: build sample homes the way FleetRunner does, to time
  // spec derivation, world construction and memoized calibration, and to
  // read one home's arena.
  double arena_kib = 0;
  if constexpr (kTraced) {
    const std::uint64_t stride = kFleetHomes / kFleetSampleHomes;
    std::size_t reserved = 0;
    for (std::uint64_t k = 0; k < kFleetSampleHomes; ++k) {
      const scenario::ScenarioSpec hs = span(
          "fleet.home_spec_us", [&] { return tmpl->home_spec(k * stride); });
      workload::WorldConfig wc = workload::world_config_from_spec(hs);
      wc.shared_testbed = &tmpl->testbed();
      wc.arena_chunk = kFleetHomeArenaChunk;
      wc.device_cache_slots = kFleetHomeCacheSlots;
      auto world = span("workload.world_build_ms", [&] {
        return std::make_unique<workload::SmartHomeWorld>(wc);
      });
      span("workload.calibrate_ms",
           [&] { world->calibrate_from(tmpl->calibration()); });
      if (const sim::Arena* a = world->sim().arena_ptr()) {
        reserved += a->reserved_bytes();
      }
    }
    arena_kib = static_cast<double>(reserved) / 1024.0 /
                static_cast<double>(kFleetSampleHomes);
  }

  const double days = r.home_days;
  r.counts
      .num("simcore.events_per_home_day", static_cast<double>(c.events) / days)
      .num("simcore.events_per_home", static_cast<double>(c.events) / r.homes)
      .num("simcore.allocs_per_event",
           static_cast<double>(allocs) / static_cast<double>(c.events * timed))
      .num("simcore.arena_kib_per_home", arena_kib)
      .num("home.fcm_pushes", c.fcm_pushes)
      .num("home.fcm_dropped", c.fcm_dropped)
      .num("netsim.link_dropped", c.link_dropped)
      .num("netsim.flap_dropped", c.flap_dropped)
      .num("speaker.reconnects", c.reconnects)
      .num("cloud.sessions_killed", c.sessions_killed)
      .num("cloud.commands_executed", c.commands_executed)
      .num("voiceguard.spikes", c.spikes)
      // Every held spike ends in exactly one release or block (verdict or
      // policy); AggregateStats keeps no separate held count.
      .num("voiceguard.held", c.released + c.blocked)
      .num("voiceguard.released", c.released)
      .num("voiceguard.blocked", c.blocked)
      .num("voiceguard.forced", c.forced_open + c.forced_closed)
      .num("voiceguard.decision_queries", ref.latency_samples())
      .num("voiceguard.fcm_retries", c.fcm_retries)
      .num("voiceguard.late_reports", c.late_reports)
      .num("fleet.attacks", c.attacks)
      .num("fleet.wakes_per_home", static_cast<double>(tel.wakes) / r.homes)
      .num("fleet.epochs_skipped_per_home",
           static_cast<double>(tel.epochs_skipped) / r.homes)
      .num("fleet.hibernations", tel.hibernations)
      .num("fleet.resident_cap", tel.resident_cap);
  return r;
}

// --- replay ------------------------------------------------------------------

struct Capture {
  std::vector<std::uint8_t> bytes;
  std::vector<guard::SpikeEvent> live;
  trace::ColumnBatch batch;
  trace::BatchReplayResult out;
};

/// The replayed spikes must be the live guard's, field for field.
bool same_spikes(const trace::BatchReplayResult& got,
                 const std::vector<guard::SpikeEvent>& live) {
  if (got.spikes.size() != live.size()) return false;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const trace::BatchSpike& a = got.spikes[i];
    const guard::SpikeEvent& b = live[i];
    if (a.flow_id != b.flow_id || a.udp != b.udp || a.start != b.start ||
        a.cls != b.cls || a.rule != b.rule ||
        a.prefix_len != b.prefix.size() ||
        !std::equal(b.prefix.begin(), b.prefix.end(), a.prefix.begin())) {
      return false;
    }
  }
  return true;
}

/// One pass: decode and adjudicate every capture kReplayRepeats times; true
/// when every replay's spikes equal the live guard's.
bool replay_pass(std::vector<Capture>& caps, trace::BatchReplayer& replayer,
                 SpanLog& span, CpuRotation& cpus) {
  bool ok = true;
  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    for (Capture& cap : caps) {
      cpus.step();
      span("trace.decode_ms",
           [&] { trace::BatchDecoder::decode(cap.bytes, cap.batch); });
      span("trace.replay_ms", [&] { replayer.run(cap.batch, cap.out); });
      ok = ok && same_spikes(cap.out, cap.live);
    }
  }
  return ok;
}

Result run_replay(std::uint64_t seed, double budget_s, SpanLog& span) {
  Result r;
  CpuRotation cpus;
  std::vector<Capture> caps;
  trace::BatchReplayer replayer;
  const std::uint64_t bad = drive(
      r, span, budget_s,
      [&](int) {
        caps.clear();
        std::uint64_t k = 0;
        for (const char* name : {"house_echo", "apartment_ghm"}) {
          scenario::ScenarioSpec spec = workload::trace_scenario_spec(
              name, 1 + mix(seed + k++) % 1'000'000'000ULL);
          spec.schedule.loop_commands = kReplayCommands;
          workload::TraceScenarioResult cap =
              workload::run_scenario_capture(spec);
          caps.push_back(
              {std::move(cap.bytes), std::move(cap.live_spikes), {}, {}});
        }
        return replay_pass(caps, replayer, span, cpus);
      },
      [&] { return replay_pass(caps, replayer, span, cpus); });
  // An op is one decode-and-adjudicate of one capture.
  tally_ops(r, "replay", bad, caps.size() * kReplayRepeats, 0);

  std::uint64_t bytes = 0, records = 0, flows = 0, spikes = 0;
  double sim_days = 0;
  for (const Capture& cap : caps) {
    bytes += cap.bytes.size();
    records += cap.batch.size();
    flows += cap.batch.flows.size();
    spikes += cap.out.spikes.size();
    sim_days += cap.batch.end_time.seconds() / 86400.0;
  }
  r.checks["replay.spikes_found"] = spikes > 0;
  r.homes = static_cast<double>(caps.size() * kReplayRepeats);
  r.home_days = sim_days * kReplayRepeats;
  r.records = static_cast<double>(records * kReplayRepeats);

  r.layout.num("seed", seed)
      .num("workers", std::uint64_t{1})
      .num("shards", std::uint64_t{1})
      .num("resident_cap", std::uint64_t{0})
      .num("live_homes", std::uint64_t{0})
      .num("input_items", records)
      .num("traces", static_cast<std::uint64_t>(caps.size()))
      .num("commands_per_trace", static_cast<std::uint64_t>(kReplayCommands))
      .num("replays_per_pass", static_cast<std::uint64_t>(kReplayRepeats))
      .num("trace_bytes", bytes);
  r.counts.num("trace.records", records)
      .num("trace.flows", flows)
      .num("trace.spikes", spikes)
      .num("trace.bytes", bytes);
  return r;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_week|fleet|replay --seed N "
               "--seconds S\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else {
      return usage(argv[0]);
    }
  }

  fix_mmap_threshold();
  SpanLog span;
  Result r;
  try {
    if (workload == "paper_week") {
      r = run_paper_week(seed, seconds, span);
    } else if (workload == "fleet") {
      r = run_fleet(seed, seconds, span);
    } else if (workload == "replay") {
      r = run_replay(seed, seconds, span);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vgbench: %s\n", e.what());
    return 1;
  }

  Json spans;
  for (const auto& [name, s] : span.summarize()) {
    spans.obj(name, Json{}
                        .num("n", static_cast<std::uint64_t>(s.n))
                        .num("total_s", s.total_s)
                        .num("self_s", s.self_s)
                        .num("median_s", median(s.durations)));
  }
  Json checks;
  for (const auto& [name, ok] : r.checks) checks.boolean(name, ok);

  Json out;
  out.str("workload", workload)
      .boolean("traced", kTraced)
      .obj("layout", r.layout)
      .list("setup_s", r.setup_s)
      .list("pass_s", r.pass_s)
      .list("pass_cpu_s", r.pass_cpu_s)
      .num("homes", r.homes)
      .num("home_days", r.home_days)
      .num("records", r.records)
      .num("work_per_pass", r.attempted / (r.pass_s.size() + r.setup_s.size()))
      .num("peak_rss_mib", r.peak_rss_mib)
      .obj("host", r.host)
      .obj("sim", r.sim)
      .obj("counts", r.counts)
      .obj("spans", spans)
      .obj("checks", checks)
      .num("attempted", r.attempted)
      .num("failed", r.failed);
  std::printf("%s\n", out.text().c_str());
  return 0;
}
