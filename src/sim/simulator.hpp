// Deterministic discrete-event simulation kernel.
//
// Every component in the reproduction — network links, Spines daemons,
// Prime replicas, PLC scan cycles, MANA windows, attack scripts — runs
// as callbacks scheduled on one Simulator. Time is simulated
// microseconds; there is no wall-clock anywhere, so a six-day plant
// soak (paper §V) executes in seconds and every run is bit-identical
// for a given seed.
//
// One Simulator is one single-threaded event queue (DESIGN.md §8).
// Independent simulations — fleet instances in the benches — each get
// their own Simulator and may run on separate threads; a Simulator and
// every component built on it must stay on one thread at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/log.hpp"

namespace spire::sim {

/// Simulated time in microseconds since simulation start.
using Time = std::uint64_t;

constexpr Time kMicrosecond = 1;
constexpr Time kMillisecond = 1000;
constexpr Time kSecond = 1000 * kMillisecond;
constexpr Time kMinute = 60 * kSecond;
constexpr Time kHour = 60 * kMinute;
constexpr Time kDay = 24 * kHour;
/// Sentinel for "no event / unbounded".
constexpr Time kNever = ~Time{0};

/// Identifies a scheduled event so it can be cancelled. Ids are dense
/// and start at 1; id 0 is never used.
using EventId = std::uint64_t;

/// Discrete-event scheduler. Events at equal timestamps fire in
/// scheduling order (FIFO).
///
/// The queue is an indexed binary min-heap ordered by (timestamp, id)
/// with lazy cancellation: cancel() flips a liveness flag (O(1), ids
/// are dense so the index is a flat array) and the dead heap entry is
/// skipped when it surfaces, or dropped wholesale once tombstones
/// outnumber live events.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` to run at absolute simulated time `at` (clamped to
  /// `now()` if in the past). Returns an id usable with cancel().
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` to run `delay` microseconds from now.
  EventId schedule_after(Time delay, std::function<void()> fn);

  /// Cancels a pending event. Returns false if it already ran or was
  /// previously cancelled.
  bool cancel(EventId id);

  /// Does nothing: a Simulator is single-threaded, and parallelism
  /// comes from running independent Simulators on separate threads.
  /// Kept because `perfbench/` still passes a worker count.
  void set_workers(unsigned /*workers*/) {}

  /// Runs a single event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty or `limit` events have run;
  /// returns the number executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs events with timestamp <= deadline (including events that are
  /// scheduled at exactly `deadline` by events executing within the
  /// call), then advances now() to deadline even if the queue still
  /// holds later events.
  std::size_t run_until(Time deadline);

  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  /// Heap entries are 16-byte PODs so sift operations stay cheap; the
  /// callback lives in slots_, found by id.
  struct Entry {
    Time at;
    EventId id;
  };

  /// Min-heap order: earliest (at, id) surfaces first. The id is the
  /// schedule-order tiebreaker that preserves equal-timestamp FIFO.
  static bool later(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.id > b.id;
  }

  /// An empty slot is the tombstone: cancel() nulls the callback, which
  /// also releases anything it captured immediately.
  [[nodiscard]] bool is_live(EventId id) const {
    return id >= base_ && id < next_id_ && static_cast<bool>(slots_[id - base_]);
  }
  void prune_dead();        ///< pops cancelled entries off the heap top
  void compact_heap();      ///< drops tombstones when they dominate
  void maybe_trim_slots();  ///< amortized trim of the dead slot prefix

  Time now_ = 0;
  std::uint64_t executed_ = 0;
  EventId next_id_ = 1;
  EventId base_ = 1;  ///< id of slots_[0]
  std::vector<std::function<void()>> slots_;
  std::size_t live_ = 0;
  std::vector<Entry> heap_;
  std::size_t next_trim_ = 1024;
};

/// RAII helper: installs the simulator's clock as the logger time
/// source for the lifetime of the simulation.
class LogClockScope {
 public:
  explicit LogClockScope(const Simulator& sim) {
    util::LogConfig::instance().time_source = [&sim] { return sim.now(); };
  }
  ~LogClockScope() { util::LogConfig::instance().time_source = nullptr; }
  LogClockScope(const LogClockScope&) = delete;
  LogClockScope& operator=(const LogClockScope&) = delete;
};

}  // namespace spire::sim
