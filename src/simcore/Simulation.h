#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simcore/Arena.h"
#include "simcore/EventQueue.h"
#include "simcore/Log.h"
#include "simcore/Rng.h"
#include "simcore/Time.h"

/// \file Simulation.h
/// The discrete-event simulation kernel.
///
/// A Simulation owns the clock, the pending-event set, the named RNG streams
/// and the trace logger. All substrates (network, radio, people, devices) are
/// built around a reference to one Simulation and advance exclusively through
/// its event loop.
///
/// The Simulation also anchors per-episode memory: an Arena for packet-path
/// allocations (owned by default, or borrowed so a BatchRunner worker can
/// reuse one arena's capacity across trials) and a TagPool interning the
/// string_view tags carried by packets and TLS records. Allocation strategy
/// never feeds back into event ordering or RNG draws, so arena-backed and
/// heap-backed runs of the same seed are bit-identical.

namespace vg::sim {

class Simulation {
 public:
  struct Options {
    /// When false the Simulation owns no arena: arena-aware factories hand
    /// out null-arena handles and every container falls back to the global
    /// allocator — the seed ("heap") semantics, kept for parity testing.
    bool use_arena = true;
    /// Chunk granularity for the owned arena. Fleet homes shrink this so
    /// O(10^4..10^5) live simulations stay resident without 64 KiB minimums.
    std::size_t arena_chunk = Arena::kDefaultChunk;
  };

  /// \param seed root seed for all named RNG streams.
  explicit Simulation(std::uint64_t seed = 1) : Simulation(seed, Options{}) {}

  Simulation(std::uint64_t seed, Options opts) : rngs_(seed) {
    if (opts.use_arena) {
      owned_arena_ = std::make_unique<Arena>(opts.arena_chunk);
      arena_ = owned_arena_.get();
    }
  }

  /// Borrows \p arena instead of owning one — the episode-reuse path: a
  /// TrialRunner worker resets its thread-local arena between trials and
  /// lends it to each trial's Simulation in turn.
  Simulation(std::uint64_t seed, Arena* arena) : arena_(arena), rngs_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules \p cb to run \p delay after the current time.
  EventId after(Duration delay, EventQueue::Callback cb) {
    return at(now_ + delay, std::move(cb));
  }

  /// Schedules \p cb at an absolute time (must not be in the past).
  EventId at(TimePoint when, EventQueue::Callback cb);

  void cancel(EventId id) { queue_.cancel(id); }

  /// Time of the earliest pending event, or nothing when the queue is empty.
  /// The wake-calendar hook: callers driving many simulations peek this to
  /// prove a run_until horizon executes nothing and skip it wholesale —
  /// which cannot perturb behaviour, because no event and no RNG draw
  /// happens between events (run_until only moves the clock).
  [[nodiscard]] std::optional<TimePoint> next_event_at() const {
    return queue_.peek();
  }

  /// Runs events until the queue drains or the clock passes \p until.
  /// Events scheduled exactly at \p until still run. Returns the number of
  /// events executed.
  std::size_t run_until(TimePoint until);

  /// Runs events until the queue drains completely.
  std::size_t run_all();

  /// Executes a bounded number of events (debugging aid). Returns how many ran.
  std::size_t step(std::size_t max_events = 1);

  /// The named stream \p stream (see RngRegistry::stream): resolve it once
  /// and keep the reference.
  Rng& rng(std::string_view stream) { return rngs_.stream(stream); }

  // --- per-episode memory ----------------------------------------------------

  /// The packet-path arena; null when arena allocation is disabled (heap
  /// semantics). Valid for the Simulation's lifetime.
  [[nodiscard]] Arena* arena_ptr() const { return arena_; }

  TagPool& tags() { return tags_; }

  /// Interns a runtime-built tag to storage that outlives the packets
  /// carrying it. Literals don't need this (static storage).
  std::string_view intern(std::string_view tag) { return tags_.intern(tag); }

  /// Arena-aware factory: constructs a T wired to this simulation's arena.
  /// T must be constructible from Arena* (e.g. net::Packet, net::DnsMessage).
  template <class T>
  [[nodiscard]] T make() {
    return T{arena_};
  }

  /// An empty vector allocating from this simulation's arena.
  template <class T>
  [[nodiscard]] std::vector<T, ArenaAlloc<T>> make_vec() {
    return std::vector<T, ArenaAlloc<T>>(ArenaAlloc<T>{arena_});
  }

  Logger& logger() { return logger_; }
  void log(LogLevel level, std::string_view component, std::string message) const {
    logger_.log(now_, level, component, std::move(message));
  }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  void fire_next();

  // Arena and tag pool are declared (and thus destroyed) after everything
  // below them in reverse: pending callbacks in the EventQueue may own
  // arena-backed packets, so the arena must outlive the queue.
  std::unique_ptr<Arena> owned_arena_;
  Arena* arena_{nullptr};
  TagPool tags_;
  TimePoint now_{};
  EventQueue queue_;
  RngRegistry rngs_;
  Logger logger_;
  std::uint64_t executed_{0};
};

}  // namespace vg::sim
