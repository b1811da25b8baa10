// The reply-wait schedule of every actor that re-sends or gives up on a
// silent peer (§5.5 timeliness). Each case silences the peer and pins the
// sim time of every (re)send and of the give-up outcome, so a change to a
// wait, a backoff or a retry budget shows up here as a changed timeline.
// The stale-timer cases end a request early (a rejection or a conclusion)
// and start the next one on the same object: the next request must wait
// its own full timeline, untouched by the first request's timer.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/ledger.h"
#include "common/serial.h"
#include "consistency/client.h"
#include "consistency/provider.h"
#include "crypto/drbg.h"
#include "dyn/client.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/provider.h"
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
        bob_id_(pooled("bob")),
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

  /// Records the send time of every message crossing from -> to, and drops
  /// it: the link is down one way only.
  std::vector<SimTime>& record_and_drop(const std::string& from,
                                        const std::string& to) {
    std::vector<SimTime>& times = sends_[from + ">" + to];
    network_.set_adversary(from, to, [&times](const net::Envelope& env) {
      times.push_back(env.sent_at);
      return net::AdversaryAction{net::AdversaryAction::Kind::kDrop, {}};
    });
    return times;
  }

  /// Sends a message as `from` without any actor behind it (no evidence):
  /// a provider reply forged on the wire, which screening accepts because
  /// it names a trusted sender, a fresh nonce and a fresh sequence number.
  void forge(const std::string& from, const std::string& to,
             nr::MsgType flag, const std::string& txn_id,
             common::BinaryWriter& payload) {
    nr::NrMessage message;
    message.header.flag = flag;
    message.header.sender = from;
    message.header.recipient = to;
    message.header.txn_id = txn_id;
    message.header.seq_no = 1000;
    message.header.nonce = rng_.bytes(16);
    message.payload = payload.take();
    network_.send(from, to, "nr", message.encode());
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
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

TEST_F(ReplyWaitTest, DynOpAfterRejectedOpWaitsItsOwnTimeout) {
  dyn::DynClientActor alice("alice", network_, alice_id_, rng_,
                            common::to_bytes("master"));
  dyn::DynProviderActor bob("bob", network_, bob_id_, rng_);
  alice.trust_peer("bob", pooled("bob").public_key());
  bob.trust_peer("alice", alice_id_.public_key());
  alice.store_dyn("bob", "ttp", "doc", common::Bytes(256, 7), 64);
  network_.run();
  ASSERT_EQ(alice.chain("doc")->head_version(), 1u);

  const SimTime t0 = network_.now();
  const auto& sends = record_and_drop("alice", "bob");
  ASSERT_TRUE(alice.update("doc", 0, common::Bytes(64, 9)));
  const std::string txn = alice.object("doc")->txn_id;
  network_.schedule(1 * kSecond, [&] {
    // The provider rejects version 2; alice reverts it, and the chain head
    // stays at version 1.
    common::BinaryWriter error;
    error.str("doc");
    error.u64(2);
    error.str("rejected");
    forge("bob", "alice", nr::MsgType::kMutateError, txn, error);
  });
  std::uint64_t second_version = 0;
  network_.schedule(2 * kSecond, [&] {
    ASSERT_TRUE(alice.update("doc", 1, common::Bytes(64, 8)));
    second_version = alice.object("doc")->pending->record.version;
  });
  bool pending_just_before = false;
  network_.schedule(17 * kSecond - 1, [&] {
    pending_just_before = alice.object("doc")->pending.has_value();
  });
  network_.run();

  // The second op reuses version 2 and gets its own 15 s: the first op's
  // timer, due at t0 + 15 s, must not revert it.
  EXPECT_EQ(second_version, 2u);
  EXPECT_EQ(sends, (std::vector<SimTime>{t0, t0 + 2 * kSecond}));
  EXPECT_TRUE(pending_just_before);
  const auto* obj = alice.object("doc");
  EXPECT_FALSE(obj->pending.has_value());
  EXPECT_EQ(obj->rejected, 1u);
  EXPECT_EQ(obj->timeouts, 1u);
  EXPECT_EQ(network_.now(), t0 + 17 * kSecond);
}

TEST_F(ReplyWaitTest, ConsOpRebuiltAfterBounceWaitsItsOwnTimeouts) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  consistency::ConsProviderActor bob("bob", network_, bob_id_, rng_);
  alice.trust_peer("bob", pooled("bob").public_key());
  bob.trust_peer("alice", alice_id_.public_key());
  alice.store_shared("bob", "ttp", "shared", common::Bytes(256, 7), 64);
  network_.run();
  ASSERT_TRUE(alice.object("shared")->opened);

  const SimTime t0 = network_.now();
  const auto& sends = record_and_drop("alice", "bob");
  ASSERT_TRUE(alice.update("shared", 0, common::Bytes(64, 9)));
  network_.schedule(1 * kSecond, [&] {
    // A stale-view bounce with nothing to catch up on: alice rebuilds the
    // record at the same version and re-submits it as a new attempt 1.
    common::BinaryWriter error;
    error.str("shared");
    error.u64(2);
    error.str("stale view");
    consistency::write_op_log(error, {});
    forge("bob", "alice", nr::MsgType::kConsOpError, "bounce", error);
  });
  network_.run();

  // The rebuilt record waits 15 s and 20 s from its own send at
  // t0 + 1.005 s, not from the bounced one's at t0.
  const SimTime rebuilt = t0 + 1 * kSecond + 5 * kMillisecond;
  EXPECT_EQ(sends, (std::vector<SimTime>{t0, rebuilt, rebuilt + 15 * kSecond,
                                         rebuilt + 35 * kSecond}));
  const auto* obj = alice.object("shared");
  EXPECT_FALSE(obj->pending.has_value());
  EXPECT_EQ(obj->stale_resubmits, 1u);
  EXPECT_EQ(obj->timeouts, 1u);
  EXPECT_EQ(network_.now(), rebuilt + 60 * kSecond);
}

TEST_F(ReplyWaitTest, AuditorRechallengeAfterConclusionWaitsItsOwnTimeouts) {
  audit::AuditLedger ledger;
  audit::AuditorActor auditor("auditor", network_, auditor_id_, rng_, ledger);
  auditor.trust_peer("bob", pooled("bob").public_key());
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
  network_.schedule(1 * kSecond, [&] {
    // An undecodable response concludes the challenge (malformed) while
    // its 15 s wait is still running.
    common::BinaryWriter empty;
    forge("bob", "auditor", nr::MsgType::kChunkResponse, "txn-1", empty);
  });
  network_.schedule(2 * kSecond,
                    [&] { ASSERT_TRUE(auditor.challenge("txn-1", 0)); });
  network_.run();

  // The re-challenge waits 15 s + 15 s from its own send at 2 s.
  EXPECT_EQ(sends, (std::vector<SimTime>{0, 2 * kSecond, 17 * kSecond}));
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.entries()[0].verdict, audit::AuditVerdict::kMalformed);
  EXPECT_EQ(ledger.entries()[0].concluded_at,
            1 * kSecond + 5 * kMillisecond);
  EXPECT_EQ(ledger.entries()[1].verdict, audit::AuditVerdict::kNoResponse);
  EXPECT_EQ(ledger.entries()[1].challenged_at, 2 * kSecond);
  EXPECT_EQ(ledger.entries()[1].concluded_at, 32 * kSecond);
}

TEST_F(ReplyWaitTest, TtpSecondInitiatorGetsItsOwnRespondentWait) {
  nr::ClientActor alice("alice", network_, alice_id_, rng_);
  nr::ProviderActor bob("bob", network_, bob_id_, rng_);
  nr::TtpActor ttp("ttp", network_, ttp_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  alice.trust_peer("ttp", ttp_id_.public_key());
  bob.trust_peer("alice", alice_id_.public_key());
  bob.trust_peer("ttp", ttp_id_.public_key());
  ttp.trust_peer("alice", alice_id_.public_key());
  ttp.trust_peer("bob", bob_id_.public_key());
  const std::string txn = alice.store("bob", "ttp", "obj",
                                      common::to_bytes("d"));
  network_.run();
  ASSERT_EQ(alice.transaction(txn)->state, nr::TxnState::kCompleted);

  // Both parties escalate the same txn, 2 s apart, and neither answers the
  // TTP's query. Bob's request replaces alice's open case.
  const SimTime t0 = network_.now();
  record_and_drop("ttp", "alice");
  record_and_drop("ttp", "bob");
  alice.resolve(txn, "no NRR");
  network_.schedule(2 * kSecond, [&] { bob.resolve(txn, "ttp"); });
  network_.run();

  // Bob's case waits its own 10 s from its query at t0 + 2.005 s: alice's
  // wait, due at t0 + 10.005 s, must not decide it early.
  ASSERT_EQ(ttp.log().size(), 1u);
  EXPECT_EQ(ttp.log()[0].initiator, "bob");
  EXPECT_EQ(ttp.log()[0].outcome, "no-response");
  EXPECT_EQ(ttp.log()[0].decided_at,
            t0 + 12 * kSecond + 5 * kMillisecond);
}

}  // namespace
}  // namespace tpnr
