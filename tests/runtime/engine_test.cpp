// runtime::Engine: the determinism contract (same seed => identical
// per-endpoint traces for ANY shard count and worker count), per-endpoint
// random streams, timer binding, and the name interner.
//
// The shard sweep here is the unit-level regression for the engine's one
// hard promise; bench_scale re-checks the same property end to end through
// the full TPNR protocol stack.
#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"

namespace tpnr::runtime {
namespace {

using common::SimTime;

constexpr SimTime kLatency = 10;  // also the lookahead in the ring workload

/// Runs a token-ring workload: E endpoints, one token starting at each, H
/// hops per token; every hop records (token, sim-time, one rng byte,
/// counter) into the OWNING endpoint's trace. Per-endpoint traces are the
/// engine's observable behaviour — the determinism contract says they must
/// not depend on shards/workers.
std::vector<std::vector<std::string>> run_ring(std::uint64_t seed,
                                               EngineOptions options) {
  constexpr std::size_t endpoints = 5;
  constexpr std::size_t hops = 8;
  Engine engine(seed, options);
  engine.set_lookahead(kLatency);
  std::vector<EndpointId> ids;
  ids.reserve(endpoints);
  for (std::size_t e = 0; e < endpoints; ++e) {
    ids.push_back(engine.endpoint("ep-" + std::to_string(e)));
  }
  // Each endpoint executes serially, so per-endpoint traces need no locks
  // even with worker threads.
  std::vector<std::vector<std::string>> traces(endpoints);

  // hop() re-posts itself around the ring until the token dies. Hops always
  // travel at now + kLatency — at or past the conservative-window bound, the
  // same guarantee a real transport provides.
  std::function<void(std::size_t, std::size_t, std::size_t)> hop =
      [&](std::size_t token, std::size_t at_endpoint, std::size_t remaining) {
        const EndpointId self = ids[at_endpoint];
        const std::uint8_t draw = engine.rng(self).bytes(1)[0];
        traces[at_endpoint].push_back(
            std::string("t")
                .append(std::to_string(token))
                .append("@")
                .append(std::to_string(engine.now()))
                .append(":")
                .append(std::to_string(draw))
                .append(":")
                .append(std::to_string(engine.next_counter(self))));
        if (remaining == 0) return;
        const std::size_t next = (at_endpoint + 1) % ids.size();
        engine.post(ids[next], self, engine.now() + kLatency,
                    [&hop, token, next, remaining] {
                      hop(token, next, remaining - 1);
                    });
      };
  for (std::size_t token = 0; token < endpoints; ++token) {
    const std::size_t start = token;
    engine.post(ids[start], kNoEndpoint, 0,
                [&hop, token, start, hops] { hop(token, start, hops); });
  }
  engine.run(1 << 20);
  EXPECT_TRUE(engine.idle());
  return traces;
}

TEST(EngineDeterminism, TraceInvariantAcrossShardAndWorkerCounts) {
  const auto baseline = run_ring(7, {1, 1});
  // {2,1} and {4,1} are the serial multi-shard paths; {2,4}/{4,4} fan rounds
  // out to worker threads. All must reproduce the single-shard trace.
  for (const EngineOptions options :
       {EngineOptions{2, 1}, EngineOptions{4, 1}, EngineOptions{2, 4},
        EngineOptions{4, 4}, EngineOptions{3, 2}}) {
    const auto trace = run_ring(7, options);
    EXPECT_EQ(trace, baseline)
        << "divergence at shards=" << options.shards
        << " workers=" << options.workers;
  }
}

TEST(EngineDeterminism, SameConfigIsReproducible) {
  EXPECT_EQ(run_ring(11, {4, 4}), run_ring(11, {4, 4}));
}

TEST(EngineDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(run_ring(1, {1, 1}), run_ring(2, {1, 1}));
}

TEST(EngineDeterminism, RngStreamDependsOnNameNotRegistrationOrder) {
  Engine forward(99);
  Engine reversed(99);
  const EndpointId a1 = forward.endpoint("alpha");
  const EndpointId b1 = forward.endpoint("beta");
  const EndpointId b2 = reversed.endpoint("beta");
  const EndpointId a2 = reversed.endpoint("alpha");
  EXPECT_EQ(forward.rng(a1).bytes(16), reversed.rng(a2).bytes(16));
  EXPECT_EQ(forward.rng(b1).bytes(16), reversed.rng(b2).bytes(16));
}

TEST(Engine, EndpointRegistrationIsIdempotent) {
  Engine engine(1);
  const EndpointId first = engine.endpoint("node");
  const EndpointId second = engine.endpoint("node");
  EXPECT_EQ(first, second);
  EXPECT_EQ(engine.endpoint_name(first), "node");
}

TEST(Engine, ShardAssignmentIsRoundRobinInRegistrationOrder) {
  Engine engine(1, {3, 1});
  EXPECT_EQ(engine.shard_count(), 3u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    const EndpointId id =
        engine.endpoint(std::string("n").append(std::to_string(i)));
    EXPECT_EQ(engine.shard_of(id), i % 3);
  }
}

TEST(Engine, NextCounterIsMonotonePerEndpoint) {
  Engine engine(1);
  const EndpointId a = engine.endpoint("a");
  const EndpointId b = engine.endpoint("b");
  EXPECT_EQ(engine.next_counter(a), 1u);
  EXPECT_EQ(engine.next_counter(a), 2u);
  EXPECT_EQ(engine.next_counter(b), 1u);  // independent streams
  EXPECT_EQ(engine.next_counter(a), 3u);
}

TEST(Engine, TimerBindsToExecutingEndpoint) {
  Engine engine(1, {2, 1});
  const EndpointId a = engine.endpoint("a");
  const EndpointId b = engine.endpoint("b");
  (void)b;
  std::vector<std::pair<EndpointId, SimTime>> fired;
  engine.post(a, kNoEndpoint, 5, [&] {
    engine.post_timer(7, [&] {
      fired.emplace_back(engine.current_endpoint(), engine.now());
    });
  });
  engine.run(100);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, a);  // the timer stayed on endpoint a
  EXPECT_EQ(fired[0].second, 12);
}

TEST(Engine, DriverTimersExecuteInScheduleOrder) {
  Engine engine(1);
  std::vector<int> order;
  engine.post_timer(5, [&] { order.push_back(1); });
  engine.post_timer(5, [&] { order.push_back(2); });  // same instant: FIFO
  engine.post_timer(3, [&] { order.push_back(0); });
  engine.run(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, CrossShardPostsAreClampedToLookahead) {
  Engine engine(1, {2, 1});
  engine.set_lookahead(50);
  const EndpointId a = engine.endpoint("a");  // shard 0
  const EndpointId b = engine.endpoint("b");  // shard 1
  ASSERT_NE(engine.shard_of(a), engine.shard_of(b));
  SimTime delivered = -1;
  engine.post(a, kNoEndpoint, 10, [&] {
    // Misbehaving caller: cross-shard post at "now". The backstop defers it
    // to now + lookahead instead of tearing a conservative window.
    engine.post(b, a, engine.now(), [&] { delivered = engine.now(); });
  });
  engine.run(100);
  EXPECT_EQ(delivered, 60);
}

TEST(Engine, SameShardPostsAreNotClamped) {
  Engine engine(1, {1, 1});
  engine.set_lookahead(50);
  const EndpointId a = engine.endpoint("a");
  const EndpointId b = engine.endpoint("b");  // same (only) shard
  SimTime delivered = -1;
  engine.post(a, kNoEndpoint, 10, [&] {
    engine.post(b, a, engine.now() + 1, [&] { delivered = engine.now(); });
  });
  engine.run(100);
  EXPECT_EQ(delivered, 11);
}

TEST(Engine, RunRespectsMaxEventsInSerialMode) {
  Engine engine(1);
  const EndpointId a = engine.endpoint("a");
  int executed = 0;
  for (int i = 0; i < 10; ++i) {
    engine.post(a, kNoEndpoint, i, [&] { ++executed; });
  }
  EXPECT_EQ(engine.run(4), 4u);
  EXPECT_EQ(executed, 4);
  EXPECT_FALSE(engine.idle());
  EXPECT_EQ(engine.run(100), 6u);
  EXPECT_TRUE(engine.idle());
}

TEST(Engine, StatsCountExecutedEvents) {
  Engine engine(1, {2, 2});
  const auto trace = [&] {
    const EndpointId a = engine.endpoint("a");
    const EndpointId b = engine.endpoint("b");
    engine.set_lookahead(5);
    engine.post(a, kNoEndpoint, 0, [&engine, a, b] {
      engine.post(b, a, engine.now() + 5, [] {});
    });
    engine.run(100);
  };
  trace();
  EXPECT_EQ(engine.stats().events_executed, 2u);
}

TEST(NameInterner, InternAndLookupRoundTrip) {
  NameInterner interner;
  const NameId a = interner.intern("alpha");
  const NameId b = interner.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("alpha"), a);  // idempotent
  EXPECT_EQ(interner.name(a), "alpha");
  EXPECT_EQ(interner.name(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
  ASSERT_TRUE(interner.find("alpha").has_value());
  EXPECT_EQ(*interner.find("alpha"), a);
  EXPECT_FALSE(interner.find("gamma").has_value());
}

TEST(NameInterner, IdsAreDenseInInternOrder) {
  NameInterner interner;
  for (NameId i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.intern("name-" + std::to_string(i)), i);
  }
}

}  // namespace
}  // namespace tpnr::runtime
