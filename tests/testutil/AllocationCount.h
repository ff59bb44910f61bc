#pragma once

#include <atomic>
#include <cstddef>

/// \file AllocationCount.h
/// The counter behind the replacement global operator new in
/// CountingAllocator.cpp, shared by the allocation-regression suite
/// (test_event_queue, test_arena, test_propagation_cache, test_batch_replay)
/// and bench_throughput's allocs-per-event metric. A binary that includes
/// this header links CountingAllocator.cpp; any allocation anywhere in the
/// process (including the standard library) then bumps the counter, which is
/// what makes "zero allocations per event" assertable.

namespace vg::testutil {

inline std::atomic<std::size_t> g_allocations{0};

/// Number of global operator new calls since process start.
inline std::size_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Allocations that happened while running \p fn.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = allocation_count();
  fn();
  return allocation_count() - before;
}

}  // namespace vg::testutil
