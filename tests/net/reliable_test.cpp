#include "net/reliable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/serial.h"
#include "net/network.h"

namespace tpnr::net {
namespace {

using common::kMillisecond;
using common::kSecond;
using common::to_bytes;

/// Two endpoints, each behind a ReliableChannel, recording what the app
/// layer actually sees.
struct Pair {
  explicit Pair(std::uint64_t network_seed, ReliableOptions options = {})
      : network(network_seed),
        alice(network, "alice", 101, options),
        bob(network, "bob", 202, options) {
    alice.attach([this](const Envelope& e) { alice_got.push_back(e); });
    bob.attach([this](const Envelope& e) { bob_got.push_back(e); });
  }
  Network network;
  ReliableChannel alice;
  ReliableChannel bob;
  std::vector<Envelope> alice_got;
  std::vector<Envelope> bob_got;
};

TEST(ReliableChannelTest, DeliversAndAcksOnCleanLink) {
  Pair p(1);
  const std::uint64_t seq = p.alice.send("bob", "app", to_bytes("hello"));
  EXPECT_EQ(p.alice.status(seq), DeliveryStatus::kPending);
  p.network.run();

  ASSERT_EQ(p.bob_got.size(), 1u);
  EXPECT_EQ(common::to_string(p.bob_got[0].payload), "hello");
  EXPECT_EQ(p.bob_got[0].from, "alice");
  EXPECT_EQ(p.bob_got[0].topic, "app");
  EXPECT_EQ(p.alice.status(seq), DeliveryStatus::kAcked);
  EXPECT_EQ(p.alice.stats().transmissions, 1u);
  EXPECT_EQ(p.alice.stats().retransmissions, 0u);
  EXPECT_EQ(p.alice.stats().acks_received, 1u);
  EXPECT_EQ(p.bob.stats().acks_sent, 1u);
}

TEST(ReliableChannelTest, RetransmitsThroughLossUntilAcked) {
  Pair p(7);
  LinkConfig lossy;
  lossy.latency = kMillisecond;
  lossy.loss_probability = 0.3;
  p.network.set_default_link(lossy);

  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 20; ++i) {
    seqs.push_back(p.alice.send("bob", "app", common::Bytes(32, 7)));
  }
  p.network.run();

  // 8 attempts against 30% loss (both directions): all 20 get through.
  EXPECT_EQ(p.bob_got.size(), 20u);
  for (const std::uint64_t seq : seqs) {
    EXPECT_EQ(p.alice.status(seq), DeliveryStatus::kAcked);
  }
  EXPECT_GT(p.alice.stats().retransmissions, 0u);
  EXPECT_GT(p.alice.stats().bytes_retransmitted, 0u);
}

TEST(ReliableChannelTest, DuplicatedFramesDeliverOnce) {
  Pair p(1);
  LinkConfig dup;
  dup.latency = kMillisecond;
  dup.duplicate_probability = 1.0;
  p.network.set_default_link(dup);

  p.alice.send("bob", "app", to_bytes("solo"));
  p.network.run();

  // The wire carried (at least) two copies; the app saw exactly one.
  ASSERT_EQ(p.bob_got.size(), 1u);
  EXPECT_GE(p.bob.stats().dups_suppressed, 1u);
  // Every copy is acked — the ack for a duplicate is how a lost first ack
  // gets repaired.
  EXPECT_GE(p.bob.stats().acks_sent, 2u);
}

TEST(ReliableChannelTest, ReorderedFramesStillDeliverExactlyOnceEach) {
  Pair p(21);
  LinkConfig link;
  link.latency = kMillisecond;
  link.reorder_probability = 0.5;
  link.reorder_window = 200 * kMillisecond;
  p.network.set_default_link(link);

  for (int i = 0; i < 30; ++i) {
    p.alice.send("bob", "app", common::Bytes(1, static_cast<char>(i)));
  }
  p.network.run();

  // Exactly once each, in whatever order the wire produced.
  ASSERT_EQ(p.bob_got.size(), 30u);
  std::vector<int> seen;
  for (const Envelope& e : p.bob_got) seen.push_back(e.payload[0]);
  std::vector<int> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 30; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(ReliableChannelTest, GivesUpAfterMaxAttemptsAndReportsUnreachable) {
  ReliableOptions options;
  options.max_attempts = 3;
  options.initial_rto = 10 * kMillisecond;
  Pair p(1, options);
  LinkConfig dead;
  dead.loss_probability = 1.0;
  p.network.set_default_link(dead);

  std::vector<std::tuple<std::string, std::string, std::uint64_t>> reported;
  p.alice.set_unreachable_handler(
      [&reported](const std::string& to, const std::string& topic,
                  std::uint64_t seq) { reported.emplace_back(to, topic, seq); });

  const std::uint64_t seq = p.alice.send("bob", "app", to_bytes("void"));
  p.network.run();

  EXPECT_EQ(p.alice.status(seq), DeliveryStatus::kUnreachable);
  EXPECT_EQ(p.alice.stats().transmissions, 3u);
  EXPECT_EQ(p.alice.stats().unreachable, 1u);
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(std::get<0>(reported[0]), "bob");
  EXPECT_EQ(std::get<1>(reported[0]), "app");
  EXPECT_EQ(std::get<2>(reported[0]), seq);
  EXPECT_TRUE(p.bob_got.empty());
}

TEST(ReliableChannelTest, GivenUpSeqsAreRememberedOnlyWithinTheWindow) {
  ReliableOptions options;
  options.dedup_window = 4;
  options.max_attempts = 1;
  options.initial_rto = 10 * kMillisecond;
  Pair p(1, options);
  LinkConfig dead;
  dead.loss_probability = 1.0;
  p.network.set_default_link(dead);

  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 6; ++i) {
    seqs.push_back(p.alice.send("bob", "app", to_bytes("void")));
    p.network.run();
  }

  // Every give-up is counted; status() remembers only the last four, and
  // the first seq reads kPending again, as an acked seq past the window
  // does.
  EXPECT_EQ(p.alice.stats().unreachable, 6u);
  EXPECT_EQ(p.alice.status(seqs[0]), DeliveryStatus::kPending);
  EXPECT_EQ(p.alice.status(seqs[1]), DeliveryStatus::kPending);
  for (std::size_t i = 2; i < seqs.size(); ++i) {
    EXPECT_EQ(p.alice.status(seqs[i]), DeliveryStatus::kUnreachable);
  }
}

TEST(ReliableChannelTest, RtoBacksOffExponentially) {
  ReliableOptions options;
  options.max_attempts = 4;
  options.initial_rto = 100 * kMillisecond;
  options.backoff = 2.0;
  options.rto_jitter = 0;
  options.trace = true;
  Pair p(1, options);
  LinkConfig dead;
  dead.loss_probability = 1.0;
  p.network.set_default_link(dead);

  p.alice.send("bob", "app", {});
  p.network.run();

  // Transmissions at t=0, 100ms, 300ms, 700ms (100+200+400 cumulative).
  std::vector<common::SimTime> at;
  for (const ChannelEvent& e : p.alice.trace()) {
    if (e.kind == ChannelEvent::Kind::kSend ||
        e.kind == ChannelEvent::Kind::kRetransmit) {
      at.push_back(e.at);
    }
  }
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], 0);
  EXPECT_EQ(at[1], 100 * kMillisecond);
  EXPECT_EQ(at[2], 300 * kMillisecond);
  EXPECT_EQ(at[3], 700 * kMillisecond);
}

TEST(ReliableChannelTest, SlowAckTriggersSpuriousRetransmissionAccounting) {
  Pair p(1);
  // Data gets through instantly, but the return path is slower than the
  // RTO: alice retransmits a frame bob already has, then BOTH acks arrive.
  LinkConfig slow_ack;
  slow_ack.latency = 300 * kMillisecond;  // > initial_rto (200ms) + jitter
  p.network.set_link("bob", "alice", slow_ack);

  p.alice.send("bob", "app", to_bytes("x"));
  p.network.run();

  ASSERT_EQ(p.bob_got.size(), 1u);
  EXPECT_EQ(p.alice.stats().retransmissions, 1u);
  EXPECT_GE(p.bob.stats().dups_suppressed, 1u);
  // Both acks eventually arrive: the second settles nothing (dup) and
  // proves the retransmission was unnecessary.
  EXPECT_EQ(p.alice.stats().acks_received, 2u);
  EXPECT_EQ(p.alice.stats().dup_acks, 1u);
  EXPECT_EQ(p.alice.stats().spurious_retransmissions, 1u);
}

TEST(ReliableChannelTest, RawUnframedTrafficPassesThrough) {
  Network network(1);
  ReliableChannel bob(network, "bob", 1);
  std::vector<Envelope> got;
  bob.attach([&got](const Envelope& e) { got.push_back(e); });

  // A peer without a channel sends a raw payload that is not a valid frame.
  network.send("legacy", "bob", "app", to_bytes("no framing here"));
  network.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(common::to_string(got[0].payload), "no framing here");
  EXPECT_EQ(bob.stats().acks_sent, 0u);
}

TEST(ReliableChannelTest, DedupWindowCompactionKeepsSuppressing) {
  ReliableOptions options;
  options.dedup_window = 4;  // tiny window to force compaction
  Pair p(1, options);

  for (int i = 0; i < 50; ++i) p.alice.send("bob", "app", common::Bytes{});
  p.network.run();
  ASSERT_EQ(p.bob_got.size(), 50u);

  // Replay an early frame byte-identically (below the compaction floor):
  // still suppressed.
  common::BinaryWriter frame;
  frame.u8(1);
  frame.u64(3);
  frame.bytes(common::Bytes{});
  p.network.send("alice", "bob", "app", frame.take());
  p.network.run();
  EXPECT_EQ(p.bob_got.size(), 50u);
  EXPECT_GE(p.bob.stats().dups_suppressed, 1u);
}

TEST(ReliableChannelTest, BitReproducibleForSameSeeds) {
  auto run_once = [](std::uint64_t network_seed) {
    Pair p(network_seed);
    LinkConfig chaos;
    chaos.latency = kMillisecond;
    chaos.jitter = 4 * kMillisecond;
    chaos.loss_probability = 0.4;
    chaos.duplicate_probability = 0.2;
    chaos.reorder_probability = 0.3;
    chaos.reorder_window = 60 * kMillisecond;
    p.network.set_default_link(chaos);
    for (int i = 0; i < 40; ++i) {
      p.alice.send("bob", "app", common::Bytes(16, 9));
      p.bob.send("alice", "app", common::Bytes(16, 4));
    }
    p.network.run();
    const RetryStats& a = p.alice.stats();
    const RetryStats& b = p.bob.stats();
    return std::make_tuple(a.transmissions, a.retransmissions, a.dup_acks,
                           a.spurious_retransmissions, b.transmissions,
                           b.dups_suppressed, p.alice_got.size(),
                           p.bob_got.size(), p.network.now());
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(ReliableChannelTest, AckTrafficIsAttributableByTopic) {
  Pair p(1);
  p.alice.send("bob", "app", to_bytes("x"));
  p.network.run();
  EXPECT_EQ(p.network.stats().topic("app").messages_sent, 1u);
  EXPECT_EQ(
      p.network.stats().topic(ReliableChannel::kAckTopic).messages_sent, 1u);
}

}  // namespace
}  // namespace tpnr::net
