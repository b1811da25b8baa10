// Hierarchical timer wheel: the engine's per-shard event container.
//
// A per-shard std::priority_queue (EventQueue, kept as the reference the
// equivalence tests compare against) costs O(log n) per push/pop with
// n = every pending event on the shard — at fleet scale that is hundreds of
// thousands of armed receipt/verdict timers, most of which fire far in the
// future (or never, their guards having been settled long before). The
// wheel buckets events by time instead: 6 levels of 64 slots, level L slots
// spanning 2^(6L) microseconds, so schedule is O(1) and pop touches only
// the slots whose cached minimum is the global minimum. Events beyond the
// ~19-hour horizon (2^36 us) overflow into a small heap.
//
// Determinism: pops leave the wheel in EXACTLY the (at, origin, seq) order
// of runtime/event.h — the same total order EventQueue produces. Two
// mechanisms make that hold:
//   * all events sharing the minimal timestamp are collected into one
//     sorted `ready_` batch before anything pops. Equal timestamps can be
//     buried in DIFFERENT slots (and different levels — a level-1 slot and
//     the overflow heap can both hold t_min), so the collection pass drains
//     every slot whose cached min equals t_min, keeps the equal events and
//     re-buckets the rest relative to the new origin;
//   * a push AT the currently-draining timestamp inserts into the sorted
//     batch in comparator position, exactly as a heap push would interleave.
//
// There is no cancel: the engine never revokes an event (actor timers carry
// their own state/attempt guards and fire as no-ops), so a slot is a plain
// vector and schedule stays allocation-amortized O(1).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/event.h"

namespace tpnr::runtime {

class TimerWheel {
 public:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 6;
  /// Deltas at or past this land in the overflow heap (2^36 us ~ 19.1 h).
  static constexpr SimTime kHorizon = SimTime{1}
                                      << (kLevelBits * kLevels);

  TimerWheel();

  void push(Event event);

  /// The next event in (at, origin, seq) order, or nullptr when empty. May
  /// cascade internally (moves buckets, never reorders), which is why it is
  /// not const.
  [[nodiscard]] const Event* peek();

  /// Pops the event peek() points at. Undefined when empty.
  Event pop();

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  /// Ensures ready_ holds the full batch for the minimal timestamp.
  void advance();
  void place(Event event);

  /// origin_ is the wheel's time floor: the timestamp of the current ready
  /// batch. Slot/level geometry is computed from (at - origin_); events at
  /// or before the floor live in ready_.
  SimTime origin_ = 0;
  SimTime ready_time_ = 0;
  /// Current-timestamp batch, sorted DESCENDING by EventLater so pop_back()
  /// yields the (origin, seq) minimum.
  std::vector<Event> ready_;

  std::array<std::array<std::vector<Event>, kSlotsPerLevel>, kLevels> slots_;
  /// Cached minimum timestamp per slot (kEmptySlot when vacant) — the pop
  /// path scans these 384 values instead of the events themselves.
  std::array<std::array<SimTime, kSlotsPerLevel>, kLevels> slot_min_;
  EventQueue overflow_;
  std::size_t size_ = 0;
};

}  // namespace tpnr::runtime
