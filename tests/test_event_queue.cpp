#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "simcore/Callback.h"
#include "simcore/EventQueue.h"
// Defines the counting global operator new/delete for this binary; used to
// assert that EventQueue::schedule does not allocate on the hot path.
#include "testutil/AllocationCount.h"

namespace vg::sim {
namespace {

// ---------------------------------------------------------------------------
// UniqueFunction
// ---------------------------------------------------------------------------

TEST(UniqueFunction, InlineForSmallCaptures) {
  int a = 0, b = 0, c = 0;
  auto small = [&a, &b, &c] { ++a; ++b; ++c; };
  static_assert(UniqueFunction<void()>::stored_inline<decltype(small)>(),
                "a three-pointer capture must fit the inline buffer");
  UniqueFunction<void()> f{small};
  f();
  EXPECT_EQ(a + b + c, 3);
}

TEST(UniqueFunction, AcceptsMoveOnlyCallables) {
  auto p = std::make_unique<int>(41);
  UniqueFunction<int()> f{[q = std::move(p)] { return *q + 1; }};
  UniqueFunction<int()> g{std::move(f)};
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(g(), 42);
}

TEST(UniqueFunction, HeapFallbackForLargeCaptures) {
  struct Big {
    char bytes[128];
  };
  Big big{};
  big.bytes[0] = 7;
  auto large = [big] { return big.bytes[0]; };
  static_assert(!UniqueFunction<char()>::stored_inline<decltype(large)>());
  UniqueFunction<char()> f{large};
  UniqueFunction<char()> g{std::move(f)};
  EXPECT_EQ(g(), 7);
}

// ---------------------------------------------------------------------------
// EventQueue: zero-allocation scheduling
// ---------------------------------------------------------------------------

TEST(EventQueue, ScheduleDoesNotAllocateForSmallCallbacks) {
  EventQueue q;
  int sink = 0;
  // Warm the slot table and heap capacity past the steady-state depth.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 256; ++i) {
      q.schedule(TimePoint{i}, [&sink] { ++sink; });
    }
    while (!q.empty()) q.pop().cb();
  }

  int *a = &sink, *b = &sink, *c = &sink;
  const std::size_t before = testutil::allocation_count();
  for (int i = 0; i < 256; ++i) {
    q.schedule(TimePoint{i}, [a, b, c] { ++*a; ++*b; ++*c; });
  }
  EXPECT_EQ(testutil::allocation_count(), before)
      << "schedule() allocated for a <=3-pointer callback";
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(sink, 4 * 256 + 3 * 256);
}

// ---------------------------------------------------------------------------
// EventQueue: bounded internal memory under schedule/cancel/pop churn
// ---------------------------------------------------------------------------

TEST(EventQueue, InternalSizeBoundedUnderCancelChurn) {
  // Regression for the seed implementation, where ids cancelled while deep in
  // the heap were never erased: heap and cancelled-set grew with total churn.
  EventQueue q;
  // A handful of long-lived events keep the queue non-empty throughout.
  for (int i = 0; i < 8; ++i) q.schedule(TimePoint{1'000'000 + i}, [] {});

  for (int i = 0; i < 100'000; ++i) {
    // Far-future event, cancelled immediately: never reaches the heap top.
    EventId id = q.schedule(TimePoint{2'000'000 + i}, [] {});
    q.cancel(id);
  }
  EXPECT_EQ(q.size(), 8u);
  // Slots are reused: churn must not grow the slot table...
  EXPECT_LE(q.slot_count(), 64u);
  // ...and lazy compaction must keep stale heap entries bounded by a small
  // multiple of the live count, not by the 100k total cancels.
  EXPECT_LE(q.heap_size(), 256u);
}

TEST(EventQueue, PopAndSkipReclaimCancelledEntries) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(TimePoint{i}, [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 500u);
  int fired = 0;
  while (!q.empty()) {
    q.pop().cb();
    ++fired;
  }
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(q.heap_size(), 0u);
  // The freed slots are all reusable: scheduling again grows nothing.
  const std::size_t slots = q.slot_count();
  for (int i = 0; i < 1000; ++i) q.schedule(TimePoint{i}, [] {});
  EXPECT_EQ(q.slot_count(), slots);
}

// ---------------------------------------------------------------------------
// EventQueue: edge cases the rewrite must preserve
// ---------------------------------------------------------------------------

TEST(EventQueue, FifoTieBreakSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.schedule(TimePoint{100}, [&order, i] { order.push_back(i); }));
  }
  // Cancelling some same-timestamp events must not perturb the FIFO order of
  // the survivors, even though cancels free slots for reuse.
  q.cancel(ids[1]);
  q.cancel(ids[4]);
  q.cancel(ids[8]);
  q.schedule(TimePoint{100}, [&order] { order.push_back(10); });  // reuses a slot
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 6, 7, 9, 10}));
}

TEST(EventQueue, CancelAfterFireIsNoopEvenWithSlotReuse) {
  EventQueue q;
  int a_fired = 0, b_fired = 0;
  EventId a = q.schedule(TimePoint{10}, [&] { ++a_fired; });
  q.pop().cb();  // fires A; its slot returns to the free list
  // B reuses A's slot; the stale handle must not be able to cancel it.
  q.schedule(TimePoint{20}, [&] { ++b_fired; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 1);
}

TEST(EventQueue, DoubleCancelAcrossSlotReuseIsSafe) {
  EventQueue q;
  bool fired = false;
  EventId a = q.schedule(TimePoint{10}, [] {});
  q.cancel(a);
  EventId b = q.schedule(TimePoint{10}, [&] { fired = true; });  // reuses slot
  q.cancel(a);  // stale: must not hit B
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().cb();
  EXPECT_TRUE(fired);
  (void)b;
}

TEST(EventQueue, ScheduleDuringPopInterleaves) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{10}, [&] {
    order.push_back(1);
    // Scheduled from inside a fired callback, at a time between the two
    // remaining events: must slot into the right position.
    q.schedule(TimePoint{15}, [&] { order.push_back(2); });
  });
  q.schedule(TimePoint{20}, [&] { order.push_back(3); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleAtSameTimeDuringPopRunsAfterExisting) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint{10}, [&] {
    order.push_back(1);
    q.schedule(TimePoint{10}, [&] { order.push_back(3); });  // same tick, later seq
  });
  q.schedule(TimePoint{10}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DefaultEventIdCancelIsNoop) {
  EventQueue q;
  q.schedule(TimePoint{10}, [] {});
  q.cancel(EventId{});  // value 0: never a live event
  EXPECT_EQ(q.size(), 1u);
}

// ---------------------------------------------------------------------------
// EventQueue: peek() — the wake-calendar hook
// ---------------------------------------------------------------------------

TEST(EventQueue, PeekReportsEarliestPendingAndSkipsCancelled) {
  EventQueue q;
  EXPECT_FALSE(q.peek().has_value());

  const EventId early = q.schedule(TimePoint{10}, [] {});
  q.schedule(TimePoint{20}, [] {});
  ASSERT_TRUE(q.peek().has_value());
  EXPECT_EQ(q.peek()->ns(), 10);

  // Cancelling the front event must not leave peek() reporting a ghost.
  q.cancel(early);
  ASSERT_TRUE(q.peek().has_value());
  EXPECT_EQ(q.peek()->ns(), 20);

  q.pop().cb();
  EXPECT_FALSE(q.peek().has_value());
}

TEST(EventQueue, PeekDoesNotPerturbFireOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(TimePoint{100 - i}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    (void)q.peek();  // observation only
    q.pop().cb();
  }
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(EventQueue, MoveOnlyCallbackThroughQueue) {
  EventQueue q;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  q.schedule(TimePoint{1},
             [&seen, p = std::move(payload)] { seen = *p; });
  q.pop().cb();
  EXPECT_EQ(seen, 7);
}

}  // namespace
}  // namespace vg::sim
