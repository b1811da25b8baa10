#include "net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tpnr::net {
namespace {

using common::kMillisecond;
using common::kSecond;
using common::to_bytes;

TEST(NetworkTest, DeliversInTimestampOrder) {
  Network network(1);
  std::vector<std::string> received;
  network.attach("sink", [&received](const Envelope& envelope) {
    received.push_back(common::to_string(envelope.payload));
  });

  LinkConfig slow;
  slow.latency = 100 * kMillisecond;
  network.set_link("a", "sink", slow);
  LinkConfig fast;
  fast.latency = 1 * kMillisecond;
  network.set_link("b", "sink", fast);

  network.send("a", "sink", "t", to_bytes("slow"));
  network.send("b", "sink", "t", to_bytes("fast"));
  network.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "fast");
  EXPECT_EQ(received[1], "slow");
}

TEST(NetworkTest, ClockAdvancesToDeliveryTime) {
  Network network(1);
  network.attach("sink", [](const Envelope&) {});
  LinkConfig link;
  link.latency = 250 * kMillisecond;
  network.set_default_link(link);
  network.send("a", "sink", "t", to_bytes("x"));
  network.run();
  EXPECT_EQ(network.now(), 250 * kMillisecond);
}

TEST(NetworkTest, FifoTieBreakAtSameTimestamp) {
  Network network(1);
  std::vector<std::string> received;
  network.attach("sink", [&received](const Envelope& envelope) {
    received.push_back(common::to_string(envelope.payload));
  });
  network.send("a", "sink", "t", to_bytes("first"));
  network.send("a", "sink", "t", to_bytes("second"));
  network.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "first");
  EXPECT_EQ(received[1], "second");
}

TEST(NetworkTest, UnknownEndpointThrows) {
  Network network(1);
  EXPECT_THROW(network.send("a", "nowhere", "t", {}),
               common::NetError);
}

TEST(NetworkTest, BandwidthAddsSerializationDelay) {
  Network network(1);
  network.attach("sink", [](const Envelope&) {});
  LinkConfig link;
  link.latency = 0;
  link.bandwidth_bytes_per_sec = 1000;  // 1 KB/s
  network.set_default_link(link);
  network.send("a", "sink", "t", common::Bytes(500, 0));  // 0.5 s
  network.run();
  EXPECT_EQ(network.now(), kSecond / 2);
}

TEST(NetworkTest, LossDropsStatistically) {
  Network network(42);
  int delivered = 0;
  network.attach("sink", [&delivered](const Envelope&) { ++delivered; });
  LinkConfig lossy;
  lossy.loss_probability = 0.5;
  network.set_default_link(lossy);
  for (int i = 0; i < 1000; ++i) network.send("a", "sink", "t", {});
  network.run();
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
  EXPECT_EQ(network.stats().messages_dropped_loss,
            1000u - static_cast<unsigned>(delivered));
}

TEST(NetworkTest, DeterministicAcrossRunsWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Network network(seed);
    int delivered = 0;
    network.attach("sink", [&delivered](const Envelope&) { ++delivered; });
    LinkConfig lossy;
    lossy.loss_probability = 0.3;
    lossy.jitter = 10 * kMillisecond;
    network.set_default_link(lossy);
    for (int i = 0; i < 200; ++i) network.send("a", "sink", "t", {});
    network.run();
    return std::make_pair(delivered, network.now());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(NetworkTest, AdversaryCanDrop) {
  Network network(1);
  int delivered = 0;
  network.attach("sink", [&delivered](const Envelope&) { ++delivered; });
  network.set_adversary("a", "sink", [](const Envelope&) {
    AdversaryAction action;
    action.kind = AdversaryAction::Kind::kDrop;
    return action;
  });
  network.send("a", "sink", "t", to_bytes("x"));
  network.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.stats().messages_dropped_adversary, 1u);
}

TEST(NetworkTest, AdversaryCanModify) {
  Network network(1);
  std::string seen;
  network.attach("sink", [&seen](const Envelope& envelope) {
    seen = common::to_string(envelope.payload);
  });
  network.set_adversary("a", "sink", [](const Envelope&) {
    AdversaryAction action;
    action.kind = AdversaryAction::Kind::kModify;
    action.modified_payload = to_bytes("evil");
    return action;
  });
  network.send("a", "sink", "t", to_bytes("good"));
  network.run();
  EXPECT_EQ(seen, "evil");
  EXPECT_EQ(network.stats().messages_modified, 1u);
}

TEST(NetworkTest, AdversaryOnlyAffectsItsLink) {
  Network network(1);
  int delivered = 0;
  network.attach("sink", [&delivered](const Envelope&) { ++delivered; });
  network.set_adversary("a", "sink", [](const Envelope&) {
    AdversaryAction action;
    action.kind = AdversaryAction::Kind::kDrop;
    return action;
  });
  network.send("b", "sink", "t", to_bytes("x"));  // different link
  network.run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, ClearAdversaryRestoresDelivery) {
  Network network(1);
  int delivered = 0;
  network.attach("sink", [&delivered](const Envelope&) { ++delivered; });
  network.set_adversary("a", "sink", [](const Envelope&) {
    AdversaryAction action;
    action.kind = AdversaryAction::Kind::kDrop;
    return action;
  });
  network.send("a", "sink", "t", {});
  network.clear_adversary("a", "sink");
  network.send("a", "sink", "t", {});
  network.run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, TimersFireAtScheduledTime) {
  Network network(1);
  common::SimTime fired_at = -1;
  network.schedule(3 * kSecond, [&] { fired_at = network.now(); });
  network.run();
  EXPECT_EQ(fired_at, 3 * kSecond);
}

TEST(NetworkTest, HandlersCanSendMoreMessages) {
  Network network(1);
  int hops = 0;
  network.attach("ping", [&](const Envelope&) {
    if (++hops < 5) network.send("ping", "pong", "t", {});
  });
  network.attach("pong", [&](const Envelope&) {
    if (++hops < 5) network.send("pong", "ping", "t", {});
  });
  network.send("start", "ping", "t", {});
  network.run();
  EXPECT_EQ(hops, 5);
}

TEST(NetworkTest, RunHonoursMaxEvents) {
  Network network(1);
  network.attach("loop", [&](const Envelope&) {
    network.send("loop", "loop", "t", {});
  });
  network.send("x", "loop", "t", {});
  const std::size_t processed = network.run(10);
  EXPECT_EQ(processed, 10u);
  EXPECT_FALSE(network.idle());
}

TEST(NetworkTest, StatsCountSentAndDelivered) {
  Network network(1);
  network.attach("sink", [](const Envelope&) {});
  network.send("a", "sink", "t", common::Bytes(100, 0));
  network.send("a", "sink", "t", common::Bytes(50, 0));
  network.run();
  EXPECT_EQ(network.stats().messages_sent, 2u);
  EXPECT_EQ(network.stats().messages_delivered, 2u);
  EXPECT_EQ(network.stats().bytes_sent, 150u);
  EXPECT_EQ(network.stats().bytes_delivered, 150u);
}

TEST(NetworkTest, PerTopicStatsSeparateTrafficClasses) {
  Network network(1);
  network.attach("sink", [](const Envelope&) {});
  network.send("a", "sink", "protocol", common::Bytes(100, 0));
  network.send("a", "sink", "protocol", common::Bytes(60, 0));
  network.send("a", "sink", "audit", common::Bytes(7, 0));
  network.run();

  const TopicStats protocol = network.stats().topic("protocol");
  EXPECT_EQ(protocol.messages_sent, 2u);
  EXPECT_EQ(protocol.bytes_sent, 160u);
  EXPECT_EQ(protocol.messages_delivered, 2u);
  EXPECT_EQ(protocol.bytes_delivered, 160u);

  const TopicStats audit = network.stats().topic("audit");
  EXPECT_EQ(audit.messages_sent, 1u);
  EXPECT_EQ(audit.bytes_sent, 7u);

  // Unknown topics read as all-zero rather than materializing entries.
  const TopicStats none = network.stats().topic("never-used");
  EXPECT_EQ(none.messages_sent, 0u);
  EXPECT_EQ(none.bytes_sent, 0u);
  EXPECT_EQ(network.stats().by_topic.size(), 2u);
}

TEST(NetworkTest, TopicStatsCountDropsAsSentNotDelivered) {
  Network network(1);
  network.attach("sink", [](const Envelope&) {});
  network.set_adversary("a", "sink", [](const Envelope&) {
    AdversaryAction action;
    action.kind = AdversaryAction::Kind::kDrop;
    return action;
  });
  network.send("a", "sink", "t", common::Bytes(10, 0));
  network.run();
  const TopicStats t = network.stats().topic("t");
  EXPECT_EQ(t.messages_sent, 1u);
  EXPECT_EQ(t.bytes_sent, 10u);
  EXPECT_EQ(t.messages_delivered, 0u);
  EXPECT_EQ(t.bytes_delivered, 0u);
  EXPECT_EQ(network.stats().bytes_delivered, 0u);
}

TEST(NetworkFaultTest, DuplicationDeliversSecondIdenticalCopy) {
  Network network(1);
  std::vector<Envelope> received;
  network.attach("sink", [&received](const Envelope& envelope) {
    received.push_back(envelope);
  });
  LinkConfig link;
  link.duplicate_probability = 1.0;
  network.set_default_link(link);
  network.send("a", "sink", "t", to_bytes("once"));
  network.run();

  ASSERT_EQ(received.size(), 2u);
  // The duplicate is indistinguishable on the wire: same id, same bytes.
  EXPECT_EQ(received[0].id, received[1].id);
  EXPECT_EQ(received[0].payload, received[1].payload);
  EXPECT_EQ(network.stats().messages_sent, 1u);
  EXPECT_EQ(network.stats().messages_duplicated, 1u);
  EXPECT_EQ(network.stats().messages_delivered, 2u);
}

TEST(NetworkFaultTest, ReorderingViolatesFifoOnOneLink) {
  Network network(11);
  std::vector<int> order;
  network.attach("sink", [&order](const Envelope& envelope) {
    order.push_back(envelope.payload.empty() ? -1 : envelope.payload[0]);
  });
  LinkConfig link;
  link.latency = 1 * kMillisecond;
  link.reorder_probability = 0.5;
  link.reorder_window = 100 * kMillisecond;
  network.set_default_link(link);
  for (int i = 0; i < 50; ++i) {
    network.send("a", "sink", "t", common::Bytes(1, static_cast<char>(i)));
  }
  network.run();

  ASSERT_EQ(order.size(), 50u);
  EXPECT_GT(network.stats().messages_reordered, 0u);
  // At least one inversion: a later send delivered before an earlier one.
  bool inverted = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) inverted = true;
  }
  EXPECT_TRUE(inverted);
}

TEST(NetworkFaultTest, DelaySpikeAddsConfiguredDelay) {
  Network network(1);
  network.attach("sink", [](const Envelope&) {});
  LinkConfig link;
  link.latency = 0;
  link.delay_spike_probability = 1.0;
  link.delay_spike = 2 * kSecond;
  network.set_default_link(link);
  network.send("a", "sink", "t", {});
  network.run();
  EXPECT_EQ(network.now(), 2 * kSecond);
}

TEST(NetworkFaultTest, PartitionDropsOnlyDuringWindowBothDirections) {
  Network network(1);
  int delivered = 0;
  network.attach("a", [&delivered](const Envelope&) { ++delivered; });
  network.attach("b", [&delivered](const Envelope&) { ++delivered; });
  LinkConfig link;
  link.latency = 1 * kMillisecond;
  network.set_default_link(link);
  network.partition("a", "b", 10 * kMillisecond, 20 * kMillisecond);

  EXPECT_FALSE(network.partitioned("a", "b", 9 * kMillisecond));
  EXPECT_TRUE(network.partitioned("a", "b", 10 * kMillisecond));
  EXPECT_TRUE(network.partitioned("b", "a", 19 * kMillisecond));
  EXPECT_FALSE(network.partitioned("a", "b", 20 * kMillisecond));

  // Sends at 5ms (before), 15ms (inside, both directions), 25ms (after).
  network.schedule(5 * kMillisecond,
                   [&] { network.send("a", "b", "t", {}); });
  network.schedule(15 * kMillisecond, [&] {
    network.send("a", "b", "t", {});
    network.send("b", "a", "t", {});
  });
  network.schedule(25 * kMillisecond,
                   [&] { network.send("a", "b", "t", {}); });
  network.run();

  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(network.stats().messages_dropped_partition, 2u);
  EXPECT_EQ(network.stats().topic("t").messages_dropped_partition, 2u);
}

TEST(NetworkFaultTest, PartitionLeavesOtherLinksAlone) {
  Network network(1);
  int delivered = 0;
  network.attach("b", [](const Envelope&) {});
  network.attach("c", [&delivered](const Envelope&) { ++delivered; });
  network.partition("a", "b", 0, kSecond);
  network.send("a", "c", "t", {});
  network.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(network.stats().messages_dropped_partition, 0u);
}

TEST(NetworkFaultTest, EndpointDownDropsAtDeliveryTime) {
  Network network(1);
  int delivered = 0;
  network.attach("sink", [&delivered](const Envelope&) { ++delivered; });
  LinkConfig link;
  link.latency = 10 * kMillisecond;
  network.set_default_link(link);
  network.set_endpoint_down("sink", 5 * kMillisecond, 50 * kMillisecond);

  // Sent while the endpoint is up, but ARRIVES (t=10ms) inside the down
  // window: dropped.
  network.send("a", "sink", "t", {});
  // Arrives at t=60ms, after the window: delivered.
  network.schedule(50 * kMillisecond,
                   [&] { network.send("a", "sink", "t", {}); });
  // Timers are unaffected by down windows.
  bool timer_fired = false;
  network.schedule(20 * kMillisecond, [&] { timer_fired = true; });
  network.run();

  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(timer_fired);
  EXPECT_EQ(network.stats().messages_dropped_endpoint_down, 1u);
  EXPECT_EQ(network.stats().topic("t").messages_dropped_endpoint_down, 1u);
}

TEST(NetworkFaultTest, PerTopicCountersAttributeFaults) {
  Network network(3);
  network.attach("sink", [](const Envelope&) {});
  LinkConfig dup;
  dup.duplicate_probability = 1.0;
  network.set_link("a", "sink", dup);
  LinkConfig lossy;
  lossy.loss_probability = 1.0;
  network.set_link("b", "sink", lossy);

  network.send("a", "sink", "app", {});
  network.send("b", "sink", "audit", {});
  network.run();

  EXPECT_EQ(network.stats().topic("app").messages_duplicated, 1u);
  EXPECT_EQ(network.stats().topic("app").messages_dropped_loss, 0u);
  EXPECT_EQ(network.stats().topic("audit").messages_dropped_loss, 1u);
  EXPECT_EQ(network.stats().topic("audit").messages_duplicated, 0u);
}

TEST(NetworkFaultTest, ConservationInvariantHoldsUnderAllFaults) {
  Network network(1234);
  network.attach("a", [](const Envelope&) {});
  network.attach("b", [](const Envelope&) {});
  LinkConfig chaos;
  chaos.latency = 2 * kMillisecond;
  chaos.jitter = 3 * kMillisecond;
  chaos.loss_probability = 0.2;
  chaos.duplicate_probability = 0.15;
  chaos.reorder_probability = 0.25;
  chaos.reorder_window = 40 * kMillisecond;
  chaos.delay_spike_probability = 0.05;
  chaos.delay_spike = 100 * kMillisecond;
  network.set_default_link(chaos);
  network.partition("a", "b", 50 * kMillisecond, 150 * kMillisecond);
  network.set_endpoint_down("b", 200 * kMillisecond, 300 * kMillisecond);
  int dropped_by_adversary = 0;
  network.set_adversary("b", "a", [&](const Envelope&) {
    AdversaryAction action;
    if (++dropped_by_adversary % 7 == 0) {
      action.kind = AdversaryAction::Kind::kDrop;
    }
    return action;
  });

  for (int i = 0; i < 400; ++i) {
    const SimTime at = static_cast<SimTime>(i) * kMillisecond;
    network.schedule(at, [&network, i] {
      if (i % 2 == 0) {
        network.send("a", "b", "t", common::Bytes(8, 1));
      } else {
        network.send("b", "a", "t", common::Bytes(8, 2));
      }
    });
  }
  network.run();

  const NetworkStats& s = network.stats();
  // Every copy either lands or hits exactly one drop bucket.
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped_loss +
                s.messages_dropped_adversary + s.messages_dropped_partition +
                s.messages_dropped_endpoint_down);
  // Each fault class actually fired in this configuration.
  EXPECT_GT(s.messages_dropped_loss, 0u);
  EXPECT_GT(s.messages_dropped_adversary, 0u);
  EXPECT_GT(s.messages_dropped_partition, 0u);
  EXPECT_GT(s.messages_dropped_endpoint_down, 0u);
  EXPECT_GT(s.messages_duplicated, 0u);
  EXPECT_GT(s.messages_reordered, 0u);

  // The same invariant holds per topic.
  const TopicStats t = s.topic("t");
  EXPECT_EQ(t.messages_sent + t.messages_duplicated,
            t.messages_delivered + t.messages_dropped_loss +
                t.messages_dropped_adversary + t.messages_dropped_partition +
                t.messages_dropped_endpoint_down);
}

TEST(NetworkFaultTest, FaultSamplingIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    Network network(seed);
    network.attach("sink", [](const Envelope&) {});
    LinkConfig chaos;
    chaos.latency = kMillisecond;
    chaos.jitter = 5 * kMillisecond;
    chaos.loss_probability = 0.3;
    chaos.duplicate_probability = 0.2;
    chaos.reorder_probability = 0.3;
    chaos.reorder_window = 30 * kMillisecond;
    chaos.delay_spike_probability = 0.1;
    chaos.delay_spike = 50 * kMillisecond;
    network.set_default_link(chaos);
    for (int i = 0; i < 300; ++i) network.send("a", "sink", "t", {});
    network.run();
    const NetworkStats& s = network.stats();
    return std::make_tuple(s.messages_delivered, s.messages_dropped_loss,
                           s.messages_duplicated, s.messages_reordered,
                           network.now());
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

/// Network::post at 1 and 4 shards (one worker: the merge order is the
/// observable one).
class NetworkPostTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NetworkPostTest, RunsInEndpointContextInCallOrder) {
  Network network(1, NetworkOptions{GetParam(), 1});
  const std::vector<std::string> names{"e0", "e1", "e2", "e3"};
  struct Run {
    std::string tag;
    runtime::EndpointId endpoint = runtime::kNoEndpoint;
    std::uint32_t shard = 0;
    SimTime at = 0;
  };
  std::vector<Run> runs;
  const auto post = [&](const std::string& name, SimTime delay,
                        std::string tag) {
    network.post(name, delay, [&network, &runs, tag = std::move(tag)] {
      runs.push_back({tag, network.engine().current_endpoint(),
                      network.engine().current_bucket(), network.now()});
    });
  };
  // Same-time posts interleaved across endpoints (and so across shards at
  // 4 shards), one at an earlier time posted last.
  post("e2", 5, "a");
  post("e0", 5, "b");
  post("e2", 5, "c");
  post("e3", 5, "d");
  post("e1", 5, "e");
  post("e0", 2, "f");
  network.run();

  ASSERT_EQ(runs.size(), 6u);
  std::string order;
  for (const Run& run : runs) order += run.tag;
  EXPECT_EQ(order, "fabcde");
  const std::vector<std::string> expected_endpoint{"e0", "e2", "e0",
                                                   "e2", "e3", "e1"};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const runtime::EndpointId id = network.endpoint_id(expected_endpoint[i]);
    EXPECT_EQ(runs[i].endpoint, id) << runs[i].tag;
    EXPECT_EQ(runs[i].shard, network.engine().shard_of(id)) << runs[i].tag;
    EXPECT_EQ(runs[i].at, runs[i].tag == "f" ? 2 : 5) << runs[i].tag;
  }
  if (GetParam() > 1) {
    EXPECT_NE(runs[1].shard, runs[2].shard);  // e2 and e0 on two shards
  }
  // Back in driver context after the run.
  EXPECT_EQ(network.engine().current_endpoint(), runtime::kNoEndpoint);
}

INSTANTIATE_TEST_SUITE_P(Shards, NetworkPostTest, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace tpnr::net
