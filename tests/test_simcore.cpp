#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/EventQueue.h"
#include "simcore/Log.h"
#include "simcore/Rng.h"
#include "simcore/Simulation.h"
#include "simcore/Time.h"

namespace vg::sim {
namespace {

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(seconds(2).ns(), 2'000'000'000);
  EXPECT_EQ((seconds(1) + milliseconds(500)).millis(), 1500.0);
  EXPECT_EQ((seconds(3) - seconds(1)).seconds(), 2.0);
  EXPECT_EQ((milliseconds(10) * 3).millis(), 30.0);
  EXPECT_EQ((seconds(10) / 4).millis(), 2500.0);
  EXPECT_LT(seconds(1), seconds(2));
}

TEST(Time, FromSecondsRoundtrip) {
  EXPECT_NEAR(from_seconds(1.622).seconds(), 1.622, 1e-9);
  EXPECT_EQ(from_seconds(0.001).ns(), 1'000'000);
}

TEST(Time, TimePointArithmetic) {
  TimePoint t0;
  TimePoint t1 = t0 + seconds(5);
  EXPECT_EQ((t1 - t0).seconds(), 5.0);
  EXPECT_EQ((t1 - seconds(2)).seconds(), 3.0);
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_time(TimePoint{} + hours(1) + minutes(2) + seconds(3) +
                        milliseconds(45)),
            "1:02:03.045");
  EXPECT_EQ(format_duration(milliseconds(40)), "40.000 ms");
  EXPECT_EQ(format_duration(from_seconds(1.622)), "1.622 s");
}

TEST(Time, ScaledRoundsTowardZero) {
  EXPECT_EQ(seconds(10).scaled(0.15).ns(), 1'500'000'000);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  RngRegistry a{42}, b{42}, c{43};
  EXPECT_EQ(a.stream("x").uniform_int(0, 1'000'000),
            b.stream("x").uniform_int(0, 1'000'000));
  // Different seed: overwhelmingly likely to differ.
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    any_diff |= a.stream("y").uniform_int(0, 1'000'000) !=
                c.stream("y").uniform_int(0, 1'000'000);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, StreamsAreIndependentByName) {
  RngRegistry a{7};
  // Drawing from stream "p" must not change what "q" produces.
  RngRegistry b{7};
  (void)a.stream("p").uniform();
  (void)a.stream("p").uniform();
  EXPECT_EQ(a.stream("q").uniform_int(0, 1'000'000),
            b.stream("q").uniform_int(0, 1'000'000));
}

TEST(Rng, UniformBounds) {
  RngRegistry r{1};
  auto& s = r.stream("u");
  for (int i = 0; i < 1000; ++i) {
    const double v = s.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    const auto k = s.uniform_int(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  RngRegistry r{1};
  auto& s = r.stream("w");
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    counts[s.weighted_index({0.0, 1.0, 9.0})]++;
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 4);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  RngRegistry r{1};
  EXPECT_THROW(r.stream("w").weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(r.stream("w").weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, ChanceExtremes) {
  RngRegistry r{1};
  auto& s = r.stream("c");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.chance(0.0));
    EXPECT_TRUE(s.chance(1.0));
  }
}

TEST(Rng, ShuffleKeepsElements) {
  RngRegistry r{1};
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  r.stream("s").shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// Known answers. These pin the engine, its seeding and every distribution,
// so a draw sequence cannot drift with the standard library or a refactor.

TEST(Rng, EngineIs32Bytes) { static_assert(sizeof(Rng) == 32); }

TEST(Rng, Xoshiro256StarStarKnownAnswer) {
  Xoshiro256StarStar e{{1, 2, 3, 4}};
  EXPECT_EQ(e(), 11520u);
  EXPECT_EQ(e(), 0u);
  EXPECT_EQ(e(), 1509978240u);
  EXPECT_EQ(e(), 1215971899390074240u);
  EXPECT_EQ(e(), 1216172134540287360u);
  EXPECT_EQ(e(), 607988272756665600u);
}

TEST(Rng, Splitmix64KnownAnswer) {
  // The first two outputs of the splitmix64 stream started at 0.
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(splitmix64(0x9E3779B97F4A7C15ull), 0x6E789E6AA1B965F4ull);
}

TEST(Rng, SeedsTheEngineFromTheSplitmix64Stream) {
  constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;
  Xoshiro256StarStar e{{splitmix64(2026), splitmix64(2026 + kGamma),
                        splitmix64(2026 + 2 * kGamma),
                        splitmix64(2026 + 3 * kGamma)}};
  Xoshiro256StarStar first = e;
  EXPECT_EQ(first(), 0x92E011592E98AE15ull);
  Rng r{2026};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.uniform(), static_cast<double>(e() >> 11) * 0x1.0p-53);
  }
}

TEST(Rng, DistributionsKnownAnswer) {
  {
    Rng r{2026};
    EXPECT_EQ(r.uniform(), 0.5737315027932676);
    EXPECT_EQ(r.uniform(), 0.2836794602748579);
    EXPECT_EQ(r.uniform(), 0.8125094267576175);
  }
  {
    Rng r{2026};
    for (const std::int64_t want : {4, 2, 5, 6, 5}) {
      EXPECT_EQ(r.uniform_int(1, 6), want);
    }
  }
  {
    Rng r{2026};
    for (const std::int64_t want : {147463, -432641, 625019}) {
      EXPECT_EQ(r.uniform_int(-1'000'000, 1'000'000), want);
    }
  }
  // normal, lognormal and exponential go through the C math library's
  // log/exp, which may differ by an ulp between implementations.
  {
    Rng r{2026};
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), 0.5709138123041032);
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), 0.5910527829419235);
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), 0.3631147431160298);
  }
  {
    Rng r{2026};
    EXPECT_DOUBLE_EQ(r.lognormal(-0.155, 0.38), 1.0639062207855134);
    EXPECT_DOUBLE_EQ(r.lognormal(-0.155, 0.38), 1.0720793254347132);
    EXPECT_DOUBLE_EQ(r.lognormal(-0.155, 0.38), 0.98312756355456);
  }
  {
    Rng r{2026};
    EXPECT_DOUBLE_EQ(r.exponential_mean(1500.0), 1279.0287841793172);
    EXPECT_DOUBLE_EQ(r.exponential_mean(1500.0), 500.44129653067074);
    EXPECT_DOUBLE_EQ(r.exponential_mean(1500.0), 2511.040066314271);
  }
}

TEST(Rng, UniformIntEdgeCases) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng r{2026};
  for (const std::int64_t v : {kMin, std::int64_t{-7}, std::int64_t{0}, kMax}) {
    EXPECT_EQ(r.uniform_int(v, v), v);
  }
  EXPECT_THROW(r.uniform_int(1, 0), std::invalid_argument);

  // Negative ranges, as link jitter draws +-ns: every value is reachable.
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform_int(-5, -1);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, -1);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  int below = 0, above = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform_int(-2'000'000, 2'000'000);
    ASSERT_GE(v, -2'000'000);
    ASSERT_LE(v, 2'000'000);
    below += v < 0;
    above += v > 0;
  }
  EXPECT_GT(below, 900);
  EXPECT_GT(above, 900);

  // The full int64 range is the raw engine output; near-full ranges reject.
  Rng full{2026};
  EXPECT_EQ(full.uniform_int(kMin, kMax), -7863265874657366507);
  EXPECT_EQ(full.uniform_int(kMin, kMax), 5232962402658359512);
  Rng near{7};
  EXPECT_EQ(near.uniform_int(kMin + 1, kMax), 3699983033973700186);
  EXPECT_EQ(near.uniform_int(kMin + 1, kMax), -4081319446519993134);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.uniform_int(0, kMax), 0);
}

TEST(Rng, UniformIntIsUnbiasedForWideRanges) {
  // n = 3 * 2^62: multiply-shift without rejection maps two engine values to
  // every multiple of 3 and one to each other value, so half the draws
  // would be multiples of 3 instead of a third.
  constexpr std::uint64_t kN = 3 * (std::uint64_t{1} << 62);
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  const auto hi = static_cast<std::int64_t>(static_cast<std::uint64_t>(kLo) + kN - 1);
  Rng r{99};
  int multiples = 0;
  constexpr int kDraws = 30'000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t offset = static_cast<std::uint64_t>(r.uniform_int(kLo, hi)) -
                                 static_cast<std::uint64_t>(kLo);
    ASSERT_LT(offset, kN);
    multiples += offset % 3 == 0;
  }
  EXPECT_NEAR(static_cast<double>(multiples) / kDraws, 1.0 / 3.0, 0.02);
}

TEST(RngRegistry, StreamReferencesAreStable) {
  Simulation sim{7};
  Rng& a = sim.rng("a");
  EXPECT_EQ(&a, &sim.rng("a"));
  (void)a.uniform();
  for (int i = 0; i < 100; ++i) (void)sim.rng("s" + std::to_string(i));
  EXPECT_EQ(&a, &sim.rng("a"));

  // The held reference still draws the stream's own sequence.
  RngRegistry fresh{7};
  Rng& b = fresh.stream("a");
  (void)b.uniform();
  EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{30}, [&] { order.push_back(3); });
  q.schedule(TimePoint{10}, [&] { order.push_back(1); });
  q.schedule(TimePoint{20}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimePoint{100}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventId id = q.schedule(TimePoint{10}, [&] { ++fired; });
  q.schedule(TimePoint{20}, [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventId id = q.schedule(TimePoint{10}, [] {});
  q.schedule(TimePoint{20}, [] {});
  q.pop().cb();
  q.cancel(id);  // already fired
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), TimePoint{20});
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  EventId id = q.schedule(TimePoint{10}, [] {});
  q.schedule(TimePoint{20}, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  TimePoint seen;
  sim.after(seconds(5), [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, TimePoint{} + seconds(5));
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.after(seconds(1), [&] { ++fired; });
  sim.after(seconds(10), [&] { ++fired; });
  sim.run_until(TimePoint{} + seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint{} + seconds(5));
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsScheduledExactlyAtHorizonRun) {
  Simulation sim;
  bool fired = false;
  sim.after(seconds(5), [&] { fired = true; });
  sim.run_until(TimePoint{} + seconds(5));
  EXPECT_TRUE(fired);
}

TEST(Simulation, SchedulingIntoPastThrows) {
  Simulation sim;
  sim.after(seconds(1), [] {});
  sim.run_all();
  EXPECT_THROW(sim.at(TimePoint{} + milliseconds(1), [] {}), std::logic_error);
}

TEST(Simulation, NestedSchedulingWorks) {
  Simulation sim;
  std::vector<double> times;
  sim.after(seconds(1), [&] {
    times.push_back(sim.now().seconds());
    sim.after(seconds(1), [&] { times.push_back(sim.now().seconds()); });
  });
  sim.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulation, CancelTimer) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.after(seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(fired);
}

// ---------------------------------------------------------------------------
// Logger
// ---------------------------------------------------------------------------

TEST(Logger, CaptureSinkReceivesRecords) {
  Simulation sim;
  std::vector<LogRecord> records;
  sim.logger().add_sink(LogLevel::kInfo, capture_sink(records));
  sim.after(seconds(2), [&] { sim.log(LogLevel::kInfo, "test", "hello"); });
  sim.log(LogLevel::kDebug, "test", "filtered");
  sim.run_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "test");
  EXPECT_EQ(records[0].message, "hello");
  EXPECT_EQ(records[0].time, TimePoint{} + seconds(2));
}

TEST(Logger, LevelFiltering) {
  Logger log;
  std::vector<LogRecord> warns, all;
  log.add_sink(LogLevel::kWarn, capture_sink(warns));
  log.add_sink(LogLevel::kTrace, capture_sink(all));
  log.log(TimePoint{}, LogLevel::kInfo, "c", "info");
  log.log(TimePoint{}, LogLevel::kError, "c", "err");
  EXPECT_EQ(warns.size(), 1u);
  EXPECT_EQ(all.size(), 2u);
}

}  // namespace
}  // namespace vg::sim
