// The engine's event record and its deterministic total order, shared by
// the hierarchical timer wheel (runtime/timer_wheel.h) and EventQueue, the
// binary-heap reference it is tested against and its overflow store. Both
// containers agree on one comparator — the determinism contract hangs off
// this ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/clock.h"

namespace tpnr::runtime {

using common::SimTime;

/// Compact id for an interned name (endpoint or topic).
using NameId = std::uint32_t;
using EndpointId = NameId;

/// Origin/context marker for events not tied to any endpoint (driver code).
inline constexpr EndpointId kNoEndpoint = 0xffffffffu;

struct Event {
  SimTime at = 0;
  EndpointId origin = kNoEndpoint;  ///< merge-key component
  std::uint64_t seq = 0;            ///< per-origin sequence
  EndpointId target = kNoEndpoint;  ///< execution context endpoint
  std::function<void()> task;
};

/// Full deterministic order: (at, origin, seq). kNoEndpoint sorts last at
/// equal timestamps. (origin, seq) pairs are unique, so ties cannot occur.
struct EventLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    if (a.origin != b.origin) return a.origin > b.origin;
    return a.seq > b.seq;
  }
};

using EventQueue = std::priority_queue<Event, std::vector<Event>, EventLater>;

}  // namespace tpnr::runtime
