// The reply-wait schedule of every actor that re-sends or gives up on a
// silent peer (§5.5 timeliness). Each case silences the peer and pins the
// sim time of every (re)send and of the give-up outcome, so a change to a
// wait, a backoff or a retry budget shows up here as a changed timeline.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/ledger.h"
#include "consistency/client.h"
#include "crypto/drbg.h"
#include "dyn/client.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/ttp.h"

namespace tpnr {
namespace {

using common::kMillisecond;
using common::kSecond;
using common::SimTime;

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{51515});
    for (const char* id : {"alice", "bob", "ttp", "auditor"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

class ReplyWaitTest : public ::testing::Test {
 protected:
  ReplyWaitTest()
      : network_(std::uint64_t{5150}),
        rng_(std::uint64_t{5151}),
        alice_id_(pooled("alice")),
        ttp_id_(pooled("ttp")),
        auditor_id_(pooled("auditor")) {}

  /// Attaches `endpoint` as a peer that swallows everything it receives.
  void silent_peer(const std::string& endpoint) {
    network_.attach(endpoint, [](const net::Envelope&) {});
  }

  /// Records the send time of every message crossing from -> to.
  std::vector<SimTime>& record_sends(const std::string& from,
                                     const std::string& to) {
    std::vector<SimTime>& times = sends_[from + ">" + to];
    network_.set_adversary(from, to, [&times](const net::Envelope& env) {
      times.push_back(env.sent_at);
      return net::AdversaryAction{};
    });
    return times;
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity ttp_id_;
  pki::Identity auditor_id_;
  std::map<std::string, std::vector<SimTime>> sends_;
};

TEST_F(ReplyWaitTest, NrStoreRetriesThenEscalates) {
  nr::ClientOptions options;
  options.store_retries = 2;
  nr::ClientActor alice("alice", network_, alice_id_, rng_, options);
  alice.trust_peer("bob", pooled("bob").public_key());
  silent_peer("bob");
  silent_peer("ttp");
  const auto& stores = record_sends("alice", "bob");
  const auto& resolves = record_sends("alice", "ttp");

  const std::string txn = alice.store("bob", "ttp", "obj",
                                      common::to_bytes("d"));
  network_.run();

  // Waits of 15 s, 20 s and 25 s: two re-sends, then the escalation.
  EXPECT_EQ(stores, (std::vector<SimTime>{0, 15 * kSecond, 35 * kSecond}));
  EXPECT_EQ(resolves, (std::vector<SimTime>{60 * kSecond}));
  const auto* state = alice.transaction(txn);
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->history_size(), 2u);
  EXPECT_EQ(state->history_entry(1),
            std::make_pair(SimTime{60 * kSecond},
                           nr::TxnState::kResolvePending));
}

TEST_F(ReplyWaitTest, NrResolveRetriesThenParksTtpUnreachable) {
  nr::ClientOptions options;
  options.resolve_retries = 2;
  nr::ClientActor alice("alice", network_, alice_id_, rng_, options);
  alice.trust_peer("bob", pooled("bob").public_key());
  silent_peer("bob");
  silent_peer("ttp");  // the TTP is down for good
  const auto& resolves = record_sends("alice", "ttp");

  const std::string txn = alice.store("bob", "ttp", "obj",
                                      common::to_bytes("d"));
  network_.run();

  // Escalation at 15 s, then verdict waits of 20 s, 30 s and 40 s.
  EXPECT_EQ(resolves,
            (std::vector<SimTime>{15 * kSecond, 35 * kSecond, 65 * kSecond}));
  const auto* state = alice.transaction(txn);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->state, nr::TxnState::kTtpUnreachable);
  EXPECT_EQ(state->finished_at, 105 * kSecond);
}

TEST_F(ReplyWaitTest, DynStoreRetriesThenGivesUp) {
  dyn::DynClientActor alice("alice", network_, alice_id_, rng_,
                            common::to_bytes("master"),
                            dyn::DynClientOptions{.mutate_retries = 2});
  alice.trust_peer("bob", pooled("bob").public_key());
  silent_peer("bob");
  const auto& sends = record_sends("alice", "bob");
  bool pending_just_before = false;
  network_.schedule(60 * kSecond - 1, [&] {
    pending_just_before = alice.object("doc") != nullptr;
  });

  alice.store_dyn("bob", "ttp", "doc", common::Bytes(256, 7), 64);
  network_.run();

  EXPECT_EQ(sends, (std::vector<SimTime>{0, 15 * kSecond, 35 * kSecond}));
  EXPECT_TRUE(pending_just_before);
  EXPECT_EQ(alice.object("doc"), nullptr);  // version 1 never committed
  EXPECT_EQ(network_.now(), 60 * kSecond);
}

TEST_F(ReplyWaitTest, ConsStoreRetriesThenGivesUp) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", pooled("bob").public_key());
  silent_peer("bob");
  const auto& sends = record_sends("alice", "bob");
  bool pending_just_before = false;
  network_.schedule(60 * kSecond - 1, [&] {
    pending_just_before = alice.object("shared") != nullptr;
  });

  alice.store_shared("bob", "ttp", "shared", common::Bytes(256, 7), 64);
  network_.run();

  EXPECT_EQ(sends, (std::vector<SimTime>{0, 15 * kSecond, 35 * kSecond}));
  EXPECT_TRUE(pending_just_before);
  EXPECT_EQ(alice.object("shared"), nullptr);
  EXPECT_EQ(network_.now(), 60 * kSecond);
}

TEST_F(ReplyWaitTest, AuditorRechallengesOnceThenRecordsNoResponse) {
  audit::AuditLedger ledger;
  audit::AuditorActor auditor("auditor", network_, auditor_id_, rng_, ledger);
  silent_peer("bob");
  const auto& sends = record_sends("auditor", "bob");
  audit::AuditTarget target;
  target.txn_id = "txn-1";
  target.provider = "bob";
  target.object_key = "obj";
  target.root = common::Bytes(32, 1);
  target.chunk_size = 64;
  target.chunk_count = 4;
  ASSERT_TRUE(auditor.register_target(target));

  ASSERT_TRUE(auditor.challenge("txn-1", 0));
  network_.run();

  EXPECT_EQ(sends, (std::vector<SimTime>{0, 15 * kSecond}));
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.entries()[0].verdict, audit::AuditVerdict::kNoResponse);
  EXPECT_EQ(ledger.entries()[0].challenged_at, 0);
  EXPECT_EQ(ledger.entries()[0].concluded_at, 30 * kSecond);
}

TEST_F(ReplyWaitTest, TtpDecidesNoResponseAfterRespondentWait) {
  nr::ClientActor alice("alice", network_, alice_id_, rng_);
  nr::TtpActor ttp("ttp", network_, ttp_id_, rng_);
  alice.trust_peer("bob", pooled("bob").public_key());
  alice.trust_peer("ttp", ttp_id_.public_key());
  ttp.trust_peer("alice", alice_id_.public_key());
  ttp.trust_peer("bob", pooled("bob").public_key());
  silent_peer("bob");
  const auto& queries = record_sends("ttp", "bob");

  const std::string txn = alice.store("bob", "ttp", "obj",
                                      common::to_bytes("d"));
  network_.run();

  // Alice escalates at 15 s; the request lands one 5 ms link later.
  ASSERT_EQ(queries, (std::vector<SimTime>{15 * kSecond + 5 * kMillisecond}));
  ASSERT_EQ(ttp.log().size(), 1u);
  EXPECT_EQ(ttp.log()[0].outcome, "no-response");
  EXPECT_EQ(ttp.log()[0].decided_at, queries[0] + 10 * kSecond);
  EXPECT_EQ(alice.transaction(txn)->state, nr::TxnState::kResolvedFailed);
}

}  // namespace
}  // namespace tpnr
