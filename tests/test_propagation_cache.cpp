#include <gtest/gtest.h>

#include <vector>

#include "home/MobileDevice.h"
#include "home/Testbed.h"
#include "radio/Propagation.h"
#include "radio/PropagationCache.h"
#include "simcore/Rng.h"
#include "simcore/Simulation.h"
#include "testutil/AllocationCount.h"
#include "voiceguard/Recognizer.h"

namespace vg::radio {
namespace {

// ---------------------------------------------------------------------------
// Parity: the cache must return the exact doubles the uncached free functions
// produce — both the deterministic mean and the noisy sample streams (same
// RNG draw order), across all three testbeds. This is the property that lets
// BluetoothScanner adopt the cache without moving a single golden trace.
// ---------------------------------------------------------------------------

std::vector<home::Testbed> all_testbeds() {
  std::vector<home::Testbed> tb;
  tb.push_back(home::Testbed::two_floor_house());
  tb.push_back(home::Testbed::apartment());
  tb.push_back(home::Testbed::office());
  return tb;
}

TEST(PropagationCacheParity, MeanMatchesUncachedBitForBit) {
  for (const auto& tb : all_testbeds()) {
    PropagationCache cache{tb.plan(), tb.radio_params()};
    for (int dep = 1; dep <= 2; ++dep) {
      const Vec3 spk = tb.speaker_position(dep);
      for (const auto& loc : tb.locations()) {
        const double fresh =
            mean_rssi(tb.plan(), tb.radio_params(), spk, loc.pos);
        // Miss, then hit: both must equal the uncached value exactly.
        EXPECT_EQ(cache.mean_rssi(spk, loc.pos), fresh)
            << tb.name() << " #" << loc.number;
        EXPECT_EQ(cache.mean_rssi(spk, loc.pos), fresh)
            << tb.name() << " #" << loc.number << " (cached)";
      }
    }
    EXPECT_GT(cache.hits(), 0u);
  }
}

TEST(PropagationCacheParity, SampleStreamsAreByteIdentical) {
  for (const auto& tb : all_testbeds()) {
    PropagationCache cache{tb.plan(), tb.radio_params()};
    const Vec3 spk = tb.speaker_position(1);
    // Two registries with the same root seed: identical streams, one consumed
    // by the cached path and one by the uncached path.
    sim::RngRegistry cached_reg{9001}, fresh_reg{9001};
    auto& cached_rng = cached_reg.stream("s");
    auto& fresh_rng = fresh_reg.stream("s");
    for (const auto& loc : tb.locations()) {
      // Repeat per location so the second draw runs off a cache hit.
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(cache.sample_rssi(spk, loc.pos, cached_rng),
                  sample_rssi(tb.plan(), tb.radio_params(), spk, loc.pos,
                              fresh_rng))
            << tb.name() << " #" << loc.number;
      }
      EXPECT_EQ(cache.averaged_rssi(spk, loc.pos, cached_rng),
                averaged_rssi(tb.plan(), tb.radio_params(), spk, loc.pos,
                              fresh_rng))
          << tb.name() << " #" << loc.number;
    }
  }
}

// ---------------------------------------------------------------------------
// Invalidation
// ---------------------------------------------------------------------------

TEST(PropagationCache, PlanEditsInvalidateAutomatically) {
  FloorPlan plan;
  plan.add_room({"a", Rect{0, 0, 10, 10}, 0});
  PathLossParams params;
  PropagationCache cache{plan, params};
  const Vec3 tx{1, 5, 1}, rx{9, 5, 1};

  const double open = cache.mean_rssi(tx, rx);
  EXPECT_EQ(cache.mean_rssi(tx, rx), open);  // hit
  EXPECT_EQ(cache.hits(), 1u);

  // A wall between them: the plan epoch bumps, the stale mean must not be
  // served, and the new value reflects the attenuation.
  plan.add_wall({Segment{{5, 0}, {5, 10}}, 0, 6.0});
  const double blocked = cache.mean_rssi(tx, rx);
  EXPECT_EQ(blocked, mean_rssi(plan, params, tx, rx));
  EXPECT_LT(blocked, open);
}

TEST(PropagationCache, ExplicitInvalidateDropsEntries) {
  FloorPlan plan;
  plan.add_room({"a", Rect{0, 0, 10, 10}, 0});
  PropagationCache cache{plan, PathLossParams{}};
  const Vec3 tx{1, 1, 1}, rx{8, 8, 1};
  cache.mean_rssi(tx, rx);
  cache.mean_rssi(tx, rx);
  EXPECT_EQ(cache.hits(), 1u);
  cache.invalidate();
  cache.mean_rssi(tx, rx);
  EXPECT_EQ(cache.hits(), 1u);  // post-invalidate query was a miss
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PropagationCache, DeviceMovementBumpsTheScannerCache) {
  sim::Simulation sim{7};
  const auto tb = home::Testbed::two_floor_house();
  home::MobileDevice dev{sim, tb.plan(), tb.radio_params(), "phone",
                         [] { return Vec3{3, 3, 1.2}; }};
  BluetoothBeacon beacon{"spk", tb.speaker_position(1)};
  dev.instant_rssi(beacon);
  dev.instant_rssi(beacon);
  EXPECT_EQ(dev.propagation_cache().hits(), 1u);
  dev.put_down(Vec3{3, 3, 0.5});
  dev.instant_rssi(beacon);  // same-key entries were dropped by the bump
  EXPECT_EQ(dev.propagation_cache().hits(), 1u);
  EXPECT_EQ(dev.propagation_cache().misses(), 2u);
  dev.pick_up();
  dev.instant_rssi(beacon);
  EXPECT_EQ(dev.propagation_cache().misses(), 3u);
}

// ---------------------------------------------------------------------------
// Allocation regression (this TU defines the counting operator new)
// ---------------------------------------------------------------------------

TEST(PropagationCacheAlloc, CacheHitsAreAllocationFree) {
  const auto tb = home::Testbed::two_floor_house();
  PropagationCache cache{tb.plan(), tb.radio_params()};
  sim::RngRegistry reg{5};
  auto& rng = reg.stream("s");
  const Vec3 spk = tb.speaker_position(1);
  const Vec3 pos = tb.location(1).pos;
  cache.sample_rssi(spk, pos, rng);  // warm: miss + any lazy RNG state
  const std::size_t n = testutil::allocations_during([&] {
    for (int i = 0; i < 1000; ++i) cache.sample_rssi(spk, pos, rng);
  });
  EXPECT_EQ(n, 0u);
}

TEST(PropagationCacheAlloc, CacheMissesAreAllocationFreeToo) {
  // The wall-grid index is built at plan-construction time and the table is
  // direct-mapped, so even a miss (full mean_rssi recompute) allocates
  // nothing — the hot radio path stays off the heap entirely.
  const auto tb = home::Testbed::two_floor_house();
  PropagationCache cache{tb.plan(), tb.radio_params()};
  const Vec3 spk = tb.speaker_position(1);
  cache.mean_rssi(spk, tb.location(1).pos);
  const std::size_t n = testutil::allocations_during([&] {
    for (const auto& loc : tb.locations()) cache.mean_rssi(spk, loc.pos);
  });
  EXPECT_EQ(n, 0u);
}

TEST(SpikeClassifierAlloc, FeedingIsAllocationFree) {
  // The DFA's seen-buffer is an inline std::array; classifying a spike must
  // not touch the heap.
  const std::size_t n = testutil::allocations_during([] {
    for (int i = 0; i < 1000; ++i) {
      guard::SpikeClassifier c;
      c.feed(300);
      c.feed(77);
      c.feed(33);
      (void)c.finalize();
      guard::SpikeClassifier u;
      for (std::uint32_t len : {400u, 401u, 402u, 403u, 404u, 405u, 406u}) {
        u.feed(len);
      }
      (void)u.matched_rule();
    }
  });
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace vg::radio
