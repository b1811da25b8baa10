// runtime::TimerWheel against runtime::EventQueue, the std::priority_queue
// reference: the wheel must be an exact drop-in for the binary-heap event
// queue — identical pop order under every
// interleaving of pushes and pops, including same-instant events spread
// across wheel levels, pushes landing mid-drain at the current instant, and
// events beyond the 2^36-tick horizon (overflow heap).
#include "runtime/timer_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "runtime/event.h"

namespace tpnr::runtime {
namespace {

using Key = std::tuple<common::SimTime, EndpointId, std::uint64_t>;

Event make_event(common::SimTime at, EndpointId origin, std::uint64_t seq) {
  Event event;
  event.at = at;
  event.origin = origin;
  event.seq = seq;
  event.target = 0;
  return event;
}

Key key_of(const Event& event) {
  return {event.at, event.origin, event.seq};
}

/// Drains a wheel completely, returning the pop order as merge keys.
std::vector<Key> drain(TimerWheel& wheel) {
  std::vector<Key> keys;
  while (!wheel.empty()) keys.push_back(key_of(wheel.pop()));
  return keys;
}

/// The same for the reference heap.
std::vector<Key> drain(EventQueue& heap) {
  std::vector<Key> keys;
  for (; !heap.empty(); heap.pop()) keys.push_back(key_of(heap.top()));
  return keys;
}

TEST(TimerWheel, PopsInMergeKeyOrder) {
  // Shuffled pushes with duplicate timestamps: pops must come back sorted
  // by the full (at, origin, seq) merge key, same as the heap's comparator.
  std::vector<Event> events;
  std::uint64_t seq = 0;
  for (const common::SimTime at : {5, 5, 5, 70, 70, 4096, 4096, 0, 1}) {
    events.push_back(make_event(at, static_cast<EndpointId>(seq % 3), ++seq));
  }
  std::mt19937 shuffle_rng(7);
  std::shuffle(events.begin(), events.end(), shuffle_rng);

  TimerWheel wheel;
  for (const Event& event : events) wheel.push(event);
  std::vector<Key> expected;
  for (const Event& event : events) expected.push_back(key_of(event));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(drain(wheel), expected);
}

TEST(TimerWheel, MatchesHeapUnderRandomizedInterleaving) {
  // Property check: the wheel and the reference heap fed the exact same
  // interleaved push/pop sequence must agree on every popped key.
  // Timestamps cluster (many duplicates), occasionally jump levels, and
  // occasionally land below the current floor (the engine never does this,
  // but the wheel keeps heap semantics there too).
  std::mt19937_64 rng(20260809);
  TimerWheel wheel;
  EventQueue heap;
  common::SimTime floor = 0;
  std::uint64_t seq = 0;
  std::size_t pending = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool push = pending == 0 || (rng() % 3) != 0;
    if (push) {
      common::SimTime at = floor;
      switch (rng() % 5) {
        case 0: break;                          // exactly the current floor
        case 1: at += rng() % 4; break;         // same level-0 neighborhood
        case 2: at += rng() % 4096; break;      // a level or two up
        case 3: at += rng() % (1 << 22); break; // high levels
        default:
          at = floor > 2 ? floor - 1 - (rng() % 2) : 0;  // below the floor
          break;
      }
      const Event event =
          make_event(at, static_cast<EndpointId>(rng() % 8), ++seq);
      wheel.push(event);
      heap.push(event);
      ++pending;
    } else {
      const Event* wheel_head = wheel.peek();
      ASSERT_NE(wheel_head, nullptr);
      ASSERT_FALSE(heap.empty());
      EXPECT_EQ(key_of(*wheel_head), key_of(heap.top())) << "at step " << step;
      const Event popped = wheel.pop();
      heap.pop();
      floor = popped.at;
      --pending;
    }
  }
  EXPECT_EQ(drain(wheel), drain(heap));
}

TEST(TimerWheel, SameInstantEventsPushedAtDifferentFloors) {
  // Two events at the same instant can sit in DIFFERENT wheel levels when
  // they were pushed at different floors; advancing must drain both.
  TimerWheel wheel;
  wheel.push(make_event(5000, 0, 1));  // pushed at floor 0: a high level
  wheel.push(make_event(10, 0, 2));
  EXPECT_EQ(key_of(wheel.pop()), (Key{10, 0, 2}));  // floor is now 10
  wheel.push(make_event(5000, 0, 3));  // delta 4990: possibly another level
  wheel.push(make_event(5000, 1, 4));
  EXPECT_EQ(key_of(wheel.pop()), (Key{5000, 0, 1}));
  EXPECT_EQ(key_of(wheel.pop()), (Key{5000, 0, 3}));
  EXPECT_EQ(key_of(wheel.pop()), (Key{5000, 1, 4}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, PushAtCurrentInstantDuringDrainKeepsOrder) {
  // The engine may post a same-shard event at `now` while draining a tick.
  // A heap would interleave it by merge key; the wheel must do the same.
  TimerWheel wheel;
  wheel.push(make_event(10, 0, 1));
  wheel.push(make_event(10, 0, 3));
  EXPECT_EQ(key_of(wheel.pop()), (Key{10, 0, 1}));
  wheel.push(make_event(10, 0, 2));  // lands between the drained and pending
  EXPECT_EQ(key_of(wheel.pop()), (Key{10, 0, 2}));
  EXPECT_EQ(key_of(wheel.pop()), (Key{10, 0, 3}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, OverflowBeyondHorizonIsOrderedWithNearEvents) {
  // Events past the 2^36-tick horizon park in the overflow heap and must
  // still pop in global order after every near event.
  constexpr common::SimTime kHorizon = common::SimTime{1} << 36;
  TimerWheel wheel;
  wheel.push(make_event(kHorizon + 7, 0, 1));
  wheel.push(make_event(kHorizon, 0, 2));
  wheel.push(make_event(3, 0, 3));
  wheel.push(make_event(kHorizon * 3, 0, 4));
  EXPECT_EQ(key_of(wheel.pop()), (Key{3, 0, 3}));
  EXPECT_EQ(key_of(wheel.pop()), (Key{kHorizon, 0, 2}));
  EXPECT_EQ(key_of(wheel.pop()), (Key{kHorizon + 7, 0, 1}));
  EXPECT_EQ(key_of(wheel.pop()), (Key{kHorizon * 3, 0, 4}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, PeekIsStableAndNonConsuming) {
  TimerWheel wheel;
  wheel.push(make_event(42, 1, 9));
  wheel.push(make_event(7, 2, 5));
  const Event* head = wheel.peek();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(key_of(*head), (Key{7, 2, 5}));
  EXPECT_EQ(key_of(*wheel.peek()), (Key{7, 2, 5}));  // idempotent
  EXPECT_EQ(wheel.size(), 2u);
}

TEST(TimerWheel, EmptyWheelBehaviour) {
  TimerWheel wheel;
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_EQ(wheel.peek(), nullptr);
}

}  // namespace
}  // namespace tpnr::runtime
