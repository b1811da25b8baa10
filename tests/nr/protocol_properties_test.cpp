// Property sweeps over the TPNR protocol: the fairness invariant under
// adversarial message loss, payload-size robustness, and determinism.
#include <gtest/gtest.h>

#include <tuple>

#include "net/network.h"
#include "nr/client.h"
#include "nr/provider.h"
#include "nr/ttp.h"

namespace tpnr::nr {
namespace {

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{515151});
    for (const char* id : {"alice", "bob", "ttp"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

struct World {
  explicit World(std::uint64_t seed)
      : network(seed),
        rng(seed * 3 + 1),
        alice_id(pooled("alice")),
        bob_id(pooled("bob")),
        ttp_id(pooled("ttp")),
        alice("alice", network, alice_id, rng),
        bob("bob", network, bob_id, rng),
        ttp("ttp", network, ttp_id, rng) {
    alice.trust_peer("bob", bob_id.public_key());
    alice.trust_peer("ttp", ttp_id.public_key());
    bob.trust_peer("alice", alice_id.public_key());
    bob.trust_peer("ttp", ttp_id.public_key());
    ttp.trust_peer("alice", alice_id.public_key());
    ttp.trust_peer("bob", bob_id.public_key());
  }

  net::Network network;
  crypto::Drbg rng;
  pki::Identity alice_id;
  pki::Identity bob_id;
  pki::Identity ttp_id;
  ClientActor alice;
  ProviderActor bob;
  TtpActor ttp;
};

// --- payload-size sweep ----------------------------------------------------

class PayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSweep, StoreFetchRoundTripsAtEverySize) {
  World world(GetParam() + 1);
  crypto::Drbg data_rng(std::uint64_t{GetParam()});
  common::Bytes data = data_rng.bytes(GetParam());
  const std::string txn = world.alice.store("bob", "ttp", "obj", data);
  world.network.run();
  ASSERT_EQ(world.alice.transaction(txn)->state, TxnState::kCompleted);

  world.alice.fetch(txn);
  world.network.run();
  const auto* state = world.alice.transaction(txn);
  EXPECT_TRUE(state->fetched);
  EXPECT_TRUE(state->fetch_integrity_ok);
  EXPECT_EQ(state->fetched_data, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSweep,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{100}, std::size_t{4096},
                                           std::size_t{65536},
                                           std::size_t{1 << 20}),
                         [](const auto& info) {
                           return "bytes" + std::to_string(info.param);
                         });

// --- fairness under receipt loss --------------------------------------------
//
// The §4 fairness goal: "once a user/service provider has sent his/her
// evidence to the peer, it is guaranteed that he/she will receive the
// evidence from the peer" — with the TTP as backstop. We drop Bob's direct
// receipts with probability p and check the invariant over many
// transactions: whenever Bob ends up holding an NRO, Alice ends up holding
// either the NRR (possibly via the TTP) or the TTP's signed failure
// statement. Nobody is left evidence-naked.

class FairnessSweep : public ::testing::TestWithParam<double> {};

TEST_P(FairnessSweep, NoPartyLeftWithoutEvidence) {
  World world(static_cast<std::uint64_t>(GetParam() * 1000) + 17);
  net::LinkConfig lossy;
  lossy.loss_probability = GetParam();
  world.network.set_link("bob", "alice", lossy);

  constexpr int kTxns = 12;
  std::vector<std::string> txns;
  for (int i = 0; i < kTxns; ++i) {
    crypto::Drbg data_rng(static_cast<std::uint64_t>(i));
    txns.push_back(world.alice.store("bob", "ttp",
                                     "obj-" + std::to_string(i),
                                     data_rng.bytes(256)));
  }
  world.network.run();

  for (const std::string& txn : txns) {
    const bool bob_has_nro = world.bob.present_nro(txn).has_value();
    const auto* state = world.alice.transaction(txn);
    ASSERT_NE(state, nullptr);
    const bool alice_has_nrr = state->nrr.has_value();
    const bool alice_has_ttp_statement = !state->ttp_statement.empty();

    if (bob_has_nro) {
      EXPECT_TRUE(alice_has_nrr || alice_has_ttp_statement)
          << txn << ": Bob holds Alice's evidence but Alice holds nothing "
          << "(state " << txn_state_name(state->state) << ")";
    }
    if (alice_has_nrr) {
      EXPECT_TRUE(bob_has_nro)
          << txn << ": Alice holds a receipt Bob never evidenced";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, FairnessSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0),
                         [](const auto& info) {
                           return "loss" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

// --- determinism -------------------------------------------------------------

TEST(ProtocolDeterminism, IdenticalSeedsProduceIdenticalOutcomes) {
  auto run_world = [](std::uint64_t seed) {
    World world(seed);
    net::LinkConfig lossy;
    lossy.loss_probability = 0.4;
    world.network.set_link("bob", "alice", lossy);
    std::vector<std::string> states;
    std::vector<std::string> txns;
    for (int i = 0; i < 8; ++i) {
      crypto::Drbg data_rng(static_cast<std::uint64_t>(i));
      txns.push_back(
          world.alice.store("bob", "ttp",
                            std::string("o").append(std::to_string(i)),
                            data_rng.bytes(128)));
    }
    world.network.run();
    for (const auto& txn : txns) {
      states.push_back(txn_state_name(world.alice.transaction(txn)->state));
    }
    return states;
  };
  EXPECT_EQ(run_world(5), run_world(5));
  // And different seeds explore different schedules at 40% loss.
  // (Not asserted — they MAY coincide — but the same-seed equality is the
  // reproducibility guarantee every experiment in this repo rests on.)
}

// --- jitter / reordering ------------------------------------------------------

TEST(ProtocolRobustness, CompletesUnderHeavyJitter) {
  World world(99);
  net::LinkConfig jittery;
  jittery.latency = common::kMillisecond;
  jittery.jitter = 200 * common::kMillisecond;
  world.network.set_default_link(jittery);

  std::vector<std::string> txns;
  for (int i = 0; i < 10; ++i) {
    crypto::Drbg data_rng(static_cast<std::uint64_t>(i + 50));
    txns.push_back(world.alice.store("bob", "ttp",
                                     std::string("j").append(std::to_string(i)),
                                     data_rng.bytes(512)));
  }
  world.network.run();
  for (const auto& txn : txns) {
    const auto state = world.alice.transaction(txn)->state;
    EXPECT_TRUE(state == TxnState::kCompleted ||
                state == TxnState::kResolvedCompleted)
        << txn_state_name(state);
  }
}

TEST(ProtocolRobustness, SlowLinksTriggerResolveNotLoss) {
  // Links slower than the receipt timeout: the direct receipt always
  // arrives late, the TTP path settles every transaction.
  World world(123);
  net::LinkConfig slow;
  slow.latency = 20 * common::kSecond;  // > 15 s receipt timeout
  world.network.set_link("bob", "alice", slow);

  crypto::Drbg data_rng(std::uint64_t{1});
  const std::string txn =
      world.alice.store("bob", "ttp", "slow-obj", data_rng.bytes(256));
  world.network.run();
  const auto state = world.alice.transaction(txn)->state;
  EXPECT_TRUE(state == TxnState::kResolvedCompleted ||
              state == TxnState::kCompleted)
      << txn_state_name(state);
  // Either way Alice holds evidence.
  EXPECT_TRUE(world.alice.present_nrr(txn).has_value());
}

}  // namespace
}  // namespace tpnr::nr
