/// Fleet-level fault orchestration (src/fleet/FleetFaultPlan.h,
/// FleetFaultOrchestrator): validate-before-install negative paths, the
/// deterministic region/selection hashing, recovery-metric merge exactness,
/// and the parity invariant under orchestrated plans — serial and sharded
/// fleets must derive bit-identical per-home faults and stats.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/FaultPlan.h"
#include "fleet/AggregateStats.h"
#include "fleet/FleetFaultOrchestrator.h"
#include "fleet/FleetRunner.h"
#include "fleet/WorldTemplate.h"
#include "scenario/ScenarioLoader.h"
#include "scenario/ScnParser.h"
#include "scenario/Serialize.h"

namespace vg::fleet {
namespace {

// ---------------------------------------------------------------------------
// Plan construction helpers.

FleetFaultPlan valid_plan() {
  FleetFaultPlan p;
  p.name = "test-plan";
  p.regions = 4;
  p.fcm_outages.push_back({/*region=*/0, sim::seconds(10), sim::seconds(8),
                           sim::milliseconds(250), /*drop_prob=*/1.0});
  p.cloud_capacity.push_back({sim::seconds(30), sim::seconds(6),
                              /*fraction=*/0.5, /*rst_existing=*/true,
                              sim::seconds(4), sim::milliseconds(200)});
  p.wan_degrades.push_back({/*region=*/1, sim::seconds(12), sim::seconds(10),
                            sim::milliseconds(150)});
  p.restart_waves.push_back({sim::seconds(45), sim::seconds(5),
                             /*fraction=*/0.5});
  return p;
}

// ---------------------------------------------------------------------------
// Named plan registry.

TEST(FleetFaultPlans, RegistryValidatesAndResolvesEveryNamedPlan) {
  const auto& plans = fleet_fault_plans();
  ASSERT_FALSE(plans.empty());
  EXPECT_EQ(plans.front().name, "fleet-baseline");
  EXPECT_TRUE(plans.front().empty());

  std::set<std::string> names;
  for (const FleetFaultPlan& p : plans) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate plan " << p.name;
    EXPECT_NO_THROW(FleetFaultOrchestrator::validate(p, 64)) << p.name;
    const FleetFaultPlan* found = fleet_fault_plan(p.name);
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(*found == p);
  }
  EXPECT_EQ(fleet_fault_plan("no-such-plan"), nullptr);
}

// ---------------------------------------------------------------------------
// validate(): malformed plans are rejected before anything is installed.

TEST(FleetFaultValidation, RejectsBadRegionCounts) {
  FleetFaultPlan p = valid_plan();
  p.regions = 0;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);
  p.regions = kMaxRegions + 1;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);

  // More regions than homes guarantees zero-home regions.
  p.regions = 4;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 3), std::invalid_argument);
  EXPECT_NO_THROW(FleetFaultOrchestrator::validate(p, 4));
}

TEST(FleetFaultValidation, RejectsEventRegionsOutsideThePlan) {
  FleetFaultPlan p = valid_plan();
  p.fcm_outages[0].region = 4;  // regions is 4, so valid regions are 0..3
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);

  p = valid_plan();
  p.wan_degrades[0].region = 99;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);
}

TEST(FleetFaultValidation, RejectsOverlappingRegionalFcmWindows) {
  FleetFaultPlan p = valid_plan();
  // Overlaps the region-0 outage at [10, 18).
  p.fcm_outages.push_back({0, sim::seconds(15), sim::seconds(5),
                           sim::Duration{}, 1.0});
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);

  // The same window in another region is fine — regions are disjoint homes.
  p = valid_plan();
  p.fcm_outages.push_back({2, sim::seconds(15), sim::seconds(5),
                           sim::Duration{}, 1.0});
  EXPECT_NO_THROW(FleetFaultOrchestrator::validate(p, 64));
}

TEST(FleetFaultValidation, RejectsBadCapacityFractions) {
  FleetFaultPlan p = valid_plan();
  p.cloud_capacity[0].fraction = 0.0;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);
  p.cloud_capacity[0].fraction = 1.5;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);
}

TEST(FleetFaultValidation, CapacityEnvelopesIncludeTheRecoverySpread) {
  FleetFaultPlan p = valid_plan();
  // The first capacity event's envelope is [30, 30+6+4) = [30, 40): a second
  // event starting inside the spread still collides.
  p.cloud_capacity.push_back({sim::seconds(38), sim::seconds(5), 0.5, false,
                              sim::Duration{}, sim::Duration{}});
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);

  p = valid_plan();
  p.cloud_capacity.push_back({sim::seconds(40), sim::seconds(5), 0.5, false,
                              sim::Duration{}, sim::Duration{}});
  EXPECT_NO_THROW(FleetFaultOrchestrator::validate(p, 64));
}

TEST(FleetFaultValidation, RejectsOverlappingRegionalWanWindows) {
  FleetFaultPlan p = valid_plan();
  p.wan_degrades.push_back({1, sim::seconds(20), sim::seconds(5),
                            sim::milliseconds(100)});
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);

  p = valid_plan();
  p.wan_degrades.push_back({0, sim::seconds(20), sim::seconds(5),
                            sim::milliseconds(100)});
  EXPECT_NO_THROW(FleetFaultOrchestrator::validate(p, 64));
}

TEST(FleetFaultValidation, RejectsBadWaveFractions) {
  FleetFaultPlan p = valid_plan();
  p.restart_waves[0].fraction = 0.0;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);
  p.restart_waves[0].fraction = 2.0;
  EXPECT_THROW(FleetFaultOrchestrator::validate(p, 64), std::invalid_argument);
}

TEST(FleetFaultValidation, AgainstBaseCatchesEveryCollisionGroup) {
  const FleetFaultOrchestrator orch{valid_plan(), 64};

  faults::FaultPlan base;  // empty base never collides
  EXPECT_NO_THROW(orch.validate_against_base(base));

  // FCM: base window [12, 20) meets the fleet outage at [10, 18).
  base = {};
  base.fcm.push_back({sim::seconds(12), sim::seconds(8), sim::Duration{}, 0.5});
  EXPECT_THROW(orch.validate_against_base(base), std::invalid_argument);

  // Cloud: base outage [35, 45) meets the capacity envelope [30, 40).
  base = {};
  base.cloud.push_back({sim::seconds(35), sim::seconds(10), true});
  EXPECT_THROW(orch.validate_against_base(base), std::invalid_argument);

  // Brownout: base brownout inside the capacity *window* [30, 36).
  base = {};
  base.brownouts.push_back(
      {sim::seconds(32), sim::seconds(2), sim::milliseconds(100)});
  EXPECT_THROW(orch.validate_against_base(base), std::invalid_argument);

  // WAN latency spike: meets the wan_degrade window [12, 22).
  base = {};
  faults::LinkFault spike;
  spike.where = faults::LinkFault::Where::kWan;
  spike.kind = faults::LinkFault::Kind::kLatencySpike;
  spike.start = sim::seconds(15);
  spike.duration = sim::seconds(5);
  spike.extra_latency = sim::milliseconds(50);
  base.links.push_back(spike);
  EXPECT_THROW(orch.validate_against_base(base), std::invalid_argument);

  // A LAN flap in the same window is a different group — no collision.
  base = {};
  faults::LinkFault flap;
  flap.where = faults::LinkFault::Where::kLan;
  flap.kind = faults::LinkFault::Kind::kFlap;
  flap.start = sim::seconds(15);
  flap.duration = sim::seconds(5);
  base.links.push_back(flap);
  EXPECT_NO_THROW(orch.validate_against_base(base));
}

// ---------------------------------------------------------------------------
// Deterministic region assignment and per-home expansion.

TEST(FleetFaultOrchestration, RegionAssignmentIsDeterministicAndInRange) {
  const FleetFaultOrchestrator a{valid_plan(), 64};
  const FleetFaultOrchestrator b{valid_plan(), 64};
  std::set<std::uint32_t> seen;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::uint32_t r = a.region_of(seed);
    EXPECT_LT(r, valid_plan().regions);
    EXPECT_EQ(r, b.region_of(seed));  // pure function of (plan, seed)
    seen.insert(r);
  }
  // 200 hashed seeds over 4 regions: every region gets homes.
  EXPECT_EQ(seen.size(), valid_plan().regions);
}

TEST(FleetFaultOrchestration, ApplyIsAPureFunctionOfTheHomeSeed) {
  const FleetFaultOrchestrator a{valid_plan(), 64};
  const FleetFaultOrchestrator b{valid_plan(), 64};
  for (std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    faults::FaultPlan out_a;
    faults::FaultPlan out_b;
    const std::size_t n_a = a.apply(seed, out_a);
    const std::size_t n_b = b.apply(seed, out_b);
    EXPECT_EQ(n_a, n_b);
    EXPECT_TRUE(out_a == out_b);
    EXPECT_EQ(n_a, out_a.total_entries());
  }
}

TEST(FleetFaultOrchestration, CapacityBrownoutTouchesEveryHome) {
  // extra_latency > 0 means the load-coupled brownout lands on every home,
  // refused or not — so a capacity event always orchestrates the full fleet.
  const FleetFaultOrchestrator orch{valid_plan(), 64};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    faults::FaultPlan out;
    orch.apply(seed, out);
    EXPECT_EQ(out.brownouts.size(), 1u) << "seed " << seed;
    // Brownout latency is the configured extra scaled by the *expected* load
    // fraction, never by live cross-home state.
    EXPECT_EQ(out.brownouts[0].extra_latency,
              sim::Duration{100'000'000});  // 200 ms * 0.5
  }
}

TEST(FleetFaultOrchestration, LastWindowEndCoversEveryVector) {
  const FleetFaultOrchestrator orch{valid_plan(), 64};
  // Latest orchestrated instant: the restart wave at 45 s + 5 s stagger.
  EXPECT_GE(orch.last_window_end(), sim::seconds(50));
}

// ---------------------------------------------------------------------------
// AggregateStats: recovery metrics merge exactly in any shard grouping.

TEST(FleetRecoveryStats, RecoveryHistogramMergesExactlyAcrossShardCounts) {
  // 64 synthetic homes folded whole, and split 2-way and 8-way: the merged
  // objects must be bit-identical to the single fold, including the max-based
  // time_to_fleet_recovery and the per-region degradation counters.
  const auto sample_ns = [](int i) {
    return static_cast<std::uint64_t>(i) * 137'000'000ull;
  };
  AggregateStats whole;
  std::vector<AggregateStats> two(2);
  std::vector<AggregateStats> eight(8);
  for (int i = 0; i < 64; ++i) {
    const bool recovered = i % 13 != 0;
    whole.add_recovery(sample_ns(i), recovered);
    two[i % 2].add_recovery(sample_ns(i), recovered);
    eight[i % 8].add_recovery(sample_ns(i), recovered);
    const auto region = static_cast<std::uint32_t>(i % 4);
    whole.add_orchestration(region, static_cast<std::uint64_t>(i % 3));
    two[i % 2].add_orchestration(region, static_cast<std::uint64_t>(i % 3));
    eight[i % 8].add_orchestration(region, static_cast<std::uint64_t>(i % 3));
  }
  AggregateStats from_two;
  for (const AggregateStats& s : two) from_two.merge(s);
  AggregateStats from_eight;
  for (const AggregateStats& s : eight) from_eight.merge(s);
  EXPECT_TRUE(from_two == whole);
  EXPECT_TRUE(from_eight == whole);
  EXPECT_EQ(from_two.fingerprint(), whole.fingerprint());
  EXPECT_EQ(from_eight.fingerprint(), whole.fingerprint());

  // Reverse merge order too (commutativity of the max and the sums).
  AggregateStats reversed;
  for (auto it = eight.rbegin(); it != eight.rend(); ++it) reversed.merge(*it);
  EXPECT_TRUE(reversed == whole);

  // The extracted metrics read the merged state exactly.
  EXPECT_EQ(whole.time_to_fleet_recovery_ns(), sample_ns(63));
  EXPECT_EQ(whole.counters().unrecovered_homes, 5u);  // i in {0,13,26,39,52}
  EXPECT_EQ(whole.recovery_samples(), 59u);
  std::uint64_t degraded = 0;
  for (const std::uint64_t d : whole.region_degraded()) degraded += d;
  EXPECT_EQ(degraded, whole.counters().orchestrated_homes);
}

TEST(FleetRecoveryStats, UnrecoveredHomesContributeNoSample) {
  AggregateStats s;
  s.add_recovery(5'000'000'000ull, false);
  EXPECT_EQ(s.recovery_samples(), 0u);
  EXPECT_EQ(s.time_to_fleet_recovery_ns(), 0u);
  EXPECT_EQ(s.counters().unrecovered_homes, 1u);
  // But the fingerprint must still see it.
  AggregateStats t;
  EXPECT_NE(s.fingerprint(), t.fingerprint());
}

// ---------------------------------------------------------------------------
// .scn loader: the [fleet_faults] section mirrors orchestrator validation
// with line-accurate errors, and round-trips through the canonical writer.

constexpr const char* kScriptedBase = R"([scenario]
name = fleet-storm
kind = home
seed = 77

[home]
testbed = apartment
deployment = 1
owners = 1

[guard]
mode = voiceguard

[schedule]
command = 10 legit
command = 25 attack
command = 41 legit
drain_s = 80

[population]
homes = 8
command_jitter_s = 1
attack_flip = 0.25
)";

constexpr const char* kFleetSection = R"(
[fleet_faults]
regions = 4
fcm_outage = 0 10 8 delay_s=0.25 drop=1
cloud_capacity = 30 6 rst fraction=0.5 spread_s=4 extra_ms=200
wan_degrade = 1 12 10 extra_ms=150
restart_wave = 45 5 fraction=0.5
reconnect_backoff = 2 cap_s=8 budget=4
fcm_retry_jitter = 0.25
fcm_retry_budget = 16
)";

scenario::ScenarioSpec storm_spec() {
  return scenario::ScenarioLoader::load(std::string{kScriptedBase} +
                                        kFleetSection);
}

void expect_scn_error(const std::string& text, const std::string& needle) {
  try {
    (void)scenario::ScenarioLoader::load(text);
    FAIL() << "expected ScnError containing '" << needle << "'";
  } catch (const scenario::ScnError& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(FleetScnLoader, FullFleetSectionRoundTripsThroughTheWriter) {
  const scenario::ScenarioSpec spec = storm_spec();
  EXPECT_EQ(spec.fleet_faults.regions, 4u);
  EXPECT_EQ(spec.fleet_faults.total_events(), 4u);
  EXPECT_TRUE(spec.fleet_faults.resilience.any());
  EXPECT_EQ(spec.fleet_faults.name, "fleet-storm");  // mirrors the spec name

  const std::string out = scenario::write_scn(spec);
  const scenario::ScenarioSpec reparsed = scenario::ScenarioLoader::load(out);
  EXPECT_TRUE(reparsed == spec);
  EXPECT_EQ(scenario::write_scn(reparsed), out);  // fixed point
}

TEST(FleetScnLoader, FleetSectionNeedsAPopulation) {
  std::string text{kScriptedBase};
  const auto pop = text.find("[population]");
  ASSERT_NE(pop, std::string::npos);
  text.resize(pop);  // strip the population section
  expect_scn_error(text + kFleetSection, "needs a [population]");
}

TEST(FleetScnLoader, RejectsMoreRegionsThanHomes) {
  std::string text = std::string{kScriptedBase} + kFleetSection;
  const auto homes = text.find("homes = 8");
  ASSERT_NE(homes, std::string::npos);
  text.replace(homes, 9, "homes = 3");
  expect_scn_error(text, "zero-home regions");
}

TEST(FleetScnLoader, RejectsEventRegionsOutsideThePlan) {
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nregions = 2\nfcm_outage = 2 10 5\n",
                   "region");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nwan_degrade = 1 10 5\n",
                   "region");  // default regions = 1
}

TEST(FleetScnLoader, RejectsOverlappingRegionalWindows) {
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nregions = 2\n"
                       "fcm_outage = 0 10 10\nfcm_outage = 0 15 10\n",
                   "overlap");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nregions = 2\n"
                       "wan_degrade = 1 10 10\nwan_degrade = 1 12 3\n",
                   "overlap");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\n"
                       "cloud_capacity = 10 10 rst spread_s=10\n"
                       "cloud_capacity = 25 5 norst\n",
                   "overlap");
}

TEST(FleetScnLoader, RejectsBadFractionsAndJitter) {
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\ncloud_capacity = 10 5 rst fraction=0\n",
                   "fraction");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nrestart_wave = 10 5 fraction=1.5\n",
                   "fraction");
  expect_scn_error(std::string{kScriptedBase} +
                       "\n[fleet_faults]\nfcm_retry_jitter = 1\n",
                   "fcm_retry_jitter");
}

TEST(FleetScnLoader, RejectsFleetWindowsCollidingWithBaseFaults) {
  // The base [faults] applies to every home, so a fleet fcm window may meet
  // it in any region — the loader rejects the collision with both lines.
  std::string text{kScriptedBase};
  const auto pop = text.find("[population]");
  ASSERT_NE(pop, std::string::npos);
  text.insert(pop, "[faults]\nfcm = 12 10 drop=0.5\n\n");
  expect_scn_error(text + kFleetSection, "collides with the base [faults]");
}

TEST(FleetScnLoader, ForbiddenOutsideScriptedHomePopulations) {
  expect_scn_error(
      "[scenario]\nname = cap\n[schedule]\ncommands = 4\n"
      "[fleet_faults]\nregions = 2\n",
      "fleet_faults");
}

// ---------------------------------------------------------------------------
// Integration: orchestrated populations keep bit-exact serial/sharded parity
// and every home recovers before the horizon.

TEST(FleetFaultIntegration, OrchestratedParityAcrossShardLayouts) {
  const WorldTemplate tmpl{storm_spec()};
  ASSERT_NE(tmpl.orchestrator(), nullptr);
  const AggregateStats serial = run_fleet_serial(tmpl, 0, tmpl.homes());

  for (const unsigned shards : {1u, 2u, 8u}) {
    for (const std::uint64_t resident : {0ull, 2ull}) {
      FleetConfig cfg;
      cfg.shards = shards;
      cfg.max_resident = resident;
      const AggregateStats fleet = run_fleet(tmpl, cfg);
      EXPECT_TRUE(fleet == serial)
          << shards << " shards, max_resident " << resident
          << ": fingerprint " << fleet.fingerprint() << " != "
          << serial.fingerprint();
    }
  }
}

TEST(FleetFaultIntegration, StormOrchestratesAndEveryHomeRecovers) {
  const WorldTemplate tmpl{storm_spec()};
  const AggregateStats stats = run_fleet_serial(tmpl, 0, tmpl.homes());

  // The capacity brownout touches every home, so the whole fleet counts as
  // orchestrated; the rst refusals force real session re-establishment.
  EXPECT_EQ(stats.counters().orchestrated_homes, tmpl.homes());
  EXPECT_GT(stats.counters().orchestrated_faults, 0u);
  EXPECT_EQ(stats.counters().unrecovered_homes, 0u);
  EXPECT_EQ(stats.recovery_samples(), tmpl.homes());

  // Degradation counters cover exactly the orchestrated homes, region by
  // region.
  std::uint64_t degraded = 0;
  for (const std::uint64_t d : stats.region_degraded()) degraded += d;
  EXPECT_EQ(degraded, stats.counters().orchestrated_homes);
}

TEST(FleetFaultIntegration, ResiliencePolicyReachesTheHomes) {
  // Same capacity crunch with and without the resilience policy: the backoff
  // scales the post-refusal reconnect waits, so each affected home's final
  // establishment — and with it the recovery histogram — must shift. This is
  // proof the policy is actually plumbed from the template into each home.
  // The storm's restart wave is dropped for this comparison: a power cycle
  // after the crunch would re-establish every session at wave-driven times
  // and wash the backoff shift out of the recorded stats.
  std::string text = std::string{kScriptedBase} + kFleetSection;
  const std::string wave = "restart_wave = 45 5 fraction=0.5\n";
  text.replace(text.find(wave), wave.size(), "");
  const scenario::ScenarioSpec with = scenario::ScenarioLoader::load(text);
  scenario::ScenarioSpec without = with;
  without.fleet_faults.resilience = {};

  const AggregateStats a = run_fleet_serial(WorldTemplate{with}, 0, 8);
  const AggregateStats b = run_fleet_serial(WorldTemplate{without}, 0, 8);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // The backoff only slows the refused homes down, never faster, and in both
  // runs every home still recovers before the horizon.
  EXPECT_GE(a.time_to_fleet_recovery_ns(), b.time_to_fleet_recovery_ns());
  EXPECT_EQ(a.counters().unrecovered_homes, 0u);
  EXPECT_EQ(b.counters().unrecovered_homes, 0u);
  // Without the backoff a refused speaker retries every 0.4-1.6 s, so every
  // home has its cloud session back within 2.5 s of its last fault. Later
  // re-establishments (a blocked attack makes the cloud kill the session)
  // are not recovery.
  EXPECT_LT(b.time_to_fleet_recovery_ns(), 2'500'000'000u);
}

/// A population of homes with wan-flap-long's command script and WAN flap
/// (30 s after boot), the flap cut to \p flap_s seconds. The flap starts
/// with every session settled; the second command falls 10 s into it.
scenario::ScenarioSpec wan_flap_spec(int flap_s) {
  return scenario::ScenarioLoader::load(
      std::string{R"([scenario]
name = fleet-wan-flap
kind = home
seed = 77

[home]
testbed = apartment
deployment = 1
owners = 1

[guard]
mode = voiceguard

[schedule]
command = 10 legit
command = 40 attack
command = 70 legit
command = 100 attack
command = 130 legit
command = 160 attack
drain_s = 215

[population]
homes = 8
command_jitter_s = 1
attack_flip = 0.25

[faults]
may_break_connections = on
link = wan flap 30 )"} +
      std::to_string(flap_s) + "\n");
}

TEST(FleetFaultIntegration, FatalWanFlapRecoveryIsTheReconnect) {
  // wan-flap-long's 45 s flap swallows the command sent 10 s into it. Its
  // retransmissions back off past the flap's end and time out ~30 s later,
  // which drops the speaker's session; the AVS side (no keep-alive) still
  // looked live when the flap ended. The home is back only when the
  // speaker's reconnect reaches the AVS, never at the flap's end.
  const WorldTemplate tmpl{wan_flap_spec(45)};
  const AggregateStats stats = run_fleet_serial(tmpl, 0, tmpl.homes());
  EXPECT_EQ(stats.recovery_samples(), tmpl.homes());
  EXPECT_EQ(stats.counters().unrecovered_homes, 0u);
  EXPECT_GT(stats.time_to_fleet_recovery_ns(), 0u);
  // Most homes lose their session that way; a home whose session the cloud
  // closed in order (a blocked attack) recovers in 0.
  EXPECT_GT(stats.mean_recovery_s(), 15.0);
}

TEST(FleetFaultIntegration, ShortWanFlapSessionSurvives) {
  // A 5 s flap is well inside the retransmit budget: every session rides it
  // out, so every home recovers in 0.
  const WorldTemplate tmpl{wan_flap_spec(5)};
  const AggregateStats stats = run_fleet_serial(tmpl, 0, tmpl.homes());
  EXPECT_EQ(stats.recovery_samples(), tmpl.homes());
  EXPECT_EQ(stats.counters().unrecovered_homes, 0u);
  EXPECT_EQ(stats.time_to_fleet_recovery_ns(), 0u);
}

}  // namespace
}  // namespace vg::fleet
