// The reply-wait schedule of every actor that re-sends or gives up on a
// silent peer (§5.5 timeliness). Each case silences the peer and pins the
// sim time of every (re)send and of the give-up outcome, so a change to a
// wait, a backoff or a retry budget shows up here as a changed timeline.
// The stale-timer cases end a request early (a rejection or a conclusion)
// and start the next one on the same object: the next request must wait
// its own full timeline, untouched by the first request's timer. The
// forged-reply fixtures after them pin the rejection branches of the reply
// handlers: each forged reply moves its own counter and nothing else.
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/ledger.h"
#include "common/serial.h"
#include "consistency/client.h"
#include "consistency/provider.h"
#include "consistency/view_history.h"
#include "crypto/drbg.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "dyn/client.h"
#include "dyn/por_tags.h"
#include "dyn/provider.h"
#include "dyn/version_chain.h"
#include "net/network.h"
#include "nr/chunked.h"
#include "nr/client.h"
#include "nr/evidence.h"
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
    for (const char* id : {"alice", "bob", "ttp", "auditor", "carol"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

/// An actor's stats as a list, in declaration order.
std::vector<std::uint64_t> fields(const nr::ActorStats& s) {
  return {s.sent,
          s.received,
          s.accepted,
          s.rejected_unknown_sender,
          s.rejected_expired,
          s.rejected_replay,
          s.rejected_bad_sequence,
          s.rejected_bad_hash,
          s.rejected_bad_evidence,
          s.rejected_wrong_addressee};
}

/// Checks that `after` is `before` plus one message that passed screening
/// and was then rejected on `reason` (or, with no reason, dropped without a
/// rejection count): nothing else moved.
void expect_one_rejection(const nr::ActorStats& before,
                          const nr::ActorStats& after,
                          std::uint64_t nr::ActorStats::*reason) {
  nr::ActorStats expected = before;
  ++expected.received;
  ++expected.accepted;
  if (reason != nullptr) ++(expected.*reason);
  EXPECT_EQ(fields(after), fields(expected));
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
  /// With a `signer`, the header claims `data_hash` and carries evidence
  /// the signer made over it, sealed for `to`.
  void forge(const std::string& from, const std::string& to,
             nr::MsgType flag, const std::string& txn_id,
             common::BinaryWriter& payload,
             const pki::Identity* signer = nullptr,
             common::Bytes data_hash = {}) {
    nr::NrMessage message;
    message.header.flag = flag;
    message.header.sender = from;
    message.header.recipient = to;
    message.header.txn_id = txn_id;
    message.header.seq_no = next_forged_seq_++;
    message.header.nonce = rng_.bytes(16);
    message.header.data_hash = std::move(data_hash);
    if (signer != nullptr) {
      message.evidence = nr::make_evidence(*signer, pooled(to).public_key(),
                                           message.header, rng_);
    }
    message.payload = payload.take();
    network_.send(from, to, "nr", message.encode());
  }

  /// Runs alice's store out and checks that, one second after a forged
  /// receipt, the receipt was counted as bad evidence and nothing else had
  /// moved: the txn still waits for its NRR.
  void expect_receipt_rejected(const nr::ClientActor& alice,
                               const std::string& txn,
                               const nr::ActorStats& before) {
    nr::ActorStats after;
    nr::ClientActor::Txn snapshot;
    network_.schedule(2 * kSecond, [&] {
      after = alice.stats();
      snapshot = *alice.transaction(txn);
    });
    network_.run();
    expect_one_rejection(before, after,
                         &nr::ActorStats::rejected_bad_evidence);
    EXPECT_EQ(snapshot.state, nr::TxnState::kStorePending);
    EXPECT_EQ(snapshot.history_size(), 1u);
    EXPECT_EQ(snapshot.store_attempts, 1u);
    EXPECT_FALSE(snapshot.nrr.has_value());
    EXPECT_FALSE(snapshot.nrr_header.has_value());
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  pki::Identity ttp_id_;
  pki::Identity auditor_id_;
  std::map<std::string, std::vector<SimTime>> sends_;
  std::uint64_t next_forged_seq_ = 1000;
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
    second_version = alice.pending("doc")->record.version;
  });
  bool pending_just_before = false;
  network_.schedule(17 * kSecond - 1, [&] {
    pending_just_before = alice.pending("doc") != nullptr;
  });
  network_.run();

  // The second op reuses version 2 and gets its own 15 s: the first op's
  // timer, due at t0 + 15 s, must not revert it.
  EXPECT_EQ(second_version, 2u);
  EXPECT_EQ(sends, (std::vector<SimTime>{t0, t0 + 2 * kSecond}));
  EXPECT_TRUE(pending_just_before);
  const auto* obj = alice.object("doc");
  EXPECT_EQ(alice.pending("doc"), nullptr);
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
  EXPECT_EQ(alice.pending("shared"), nullptr);
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

TEST_F(ReplyWaitTest, NrRestartVerdictResendsTheNroUnderOneNewWait) {
  nr::ClientOptions options;
  options.store_retries = 1;
  nr::ClientActor alice("alice", network_, alice_id_, rng_, options);
  nr::ProviderActor bob("bob", network_, bob_id_, rng_);
  nr::TtpActor ttp("ttp", network_, ttp_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  alice.trust_peer("ttp", ttp_id_.public_key());
  bob.trust_peer("alice", alice_id_.public_key());
  bob.trust_peer("ttp", ttp_id_.public_key());
  ttp.trust_peer("alice", alice_id_.public_key());
  ttp.trust_peer("bob", bob_id_.public_key());
  const auto& stores = record_and_drop("alice", "bob");  // bob never sees it
  const auto& resolves = record_sends("alice", "ttp");

  const std::string txn = alice.store("bob", "ttp", "obj",
                                      common::to_bytes("d"));
  network_.schedule(1 * kSecond, [&] { alice.resolve(txn, "early"); });
  network_.run();

  // Bob knows no such txn and answers the TTP's query with "restart"; the
  // verdict reaches alice 20 ms after her resolve and she re-sends the NRO.
  // Escalating ended the first store wait (due at 15 s), so only the
  // re-send's wait of 20 s runs, and its give-up escalates once more.
  const SimTime resent = 1 * kSecond + 20 * kMillisecond;
  EXPECT_EQ(stores, (std::vector<SimTime>{0, resent}));
  EXPECT_EQ(resolves,
            (std::vector<SimTime>{1 * kSecond, resent + 20 * kSecond}));
  EXPECT_EQ(ttp.verdicts_resent(), 1u);
  const auto* state = alice.transaction(txn);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->store_attempts, 2u);
  // The re-sent verdict is "restart" again, with the retry budget spent.
  EXPECT_EQ(state->state, nr::TxnState::kResolvedFailed);
}

TEST_F(ReplyWaitTest, DynReceiptsThatDoNotSettleTheOpAreDropped) {
  dyn::DynClientActor alice("alice", network_, alice_id_, rng_,
                            common::to_bytes("master"));
  dyn::DynProviderActor bob("bob", network_, bob_id_, rng_);
  alice.trust_peer("bob", pooled("bob").public_key());
  bob.trust_peer("alice", alice_id_.public_key());
  alice.store_dyn("bob", "ttp", "doc", common::Bytes(256, 7), 64);
  network_.run();
  const auto* obj = alice.object("doc");
  ASSERT_EQ(obj->chain.head_version(), 1u);
  const std::string txn = obj->txn_id;

  // A second receipt for the store, after its op retired.
  const dyn::SignedVersionRecord committed = obj->chain.records().back();
  common::BinaryWriter duplicate;
  duplicate.str("doc");
  duplicate.bytes(committed.encode());
  forge("bob", "alice", nr::MsgType::kDynStoreReceipt, txn, duplicate,
        &bob_id_, committed.record.new_root);
  network_.run();
  EXPECT_EQ(obj->duplicate_receipts, 1u);
  EXPECT_EQ(obj->receipts, 1u);

  // An update whose real receipt never comes, answered by two forged ones.
  record_and_drop("alice", "bob");
  ASSERT_TRUE(alice.update("doc", 0, common::Bytes(64, 9)));
  ASSERT_NE(alice.pending("doc"), nullptr);
  // Bob countersigns a record other than the one alice signed.
  dyn::SignedVersionRecord altered{alice.pending("doc")->record,
                                   alice.pending("doc")->client_sig, {}};
  altered.record.chunk_tag ^= 1;
  altered.countersign(bob_id_);
  // The exact record, countersigned by someone other than bob.
  dyn::SignedVersionRecord miscountersigned{
      alice.pending("doc")->record, alice.pending("doc")->client_sig, {}};
  miscountersigned.countersign(alice_id_);
  const nr::ActorStats before = alice.stats();
  network_.schedule(1 * kSecond, [&] {
    common::BinaryWriter receipt;
    receipt.str("doc");
    receipt.bytes(altered.encode());
    forge("bob", "alice", nr::MsgType::kMutateReceipt, txn, receipt, &bob_id_,
          altered.record.new_root);
  });
  network_.schedule(2 * kSecond, [&] {
    common::BinaryWriter receipt;
    receipt.str("doc");
    receipt.bytes(miscountersigned.encode());
    forge("bob", "alice", nr::MsgType::kMutateReceipt, txn, receipt, &bob_id_,
          miscountersigned.record.new_root);
  });
  bool pending_after_forgeries = false;
  network_.schedule(3 * kSecond, [&] {
    pending_after_forgeries = alice.pending("doc") != nullptr;
  });
  network_.run();

  EXPECT_EQ(alice.stats().rejected_bad_hash, before.rejected_bad_hash + 1);
  EXPECT_EQ(alice.stats().rejected_bad_evidence,
            before.rejected_bad_evidence + 1);
  // Neither forgery settled the op: it waited out its timeout and reverted.
  EXPECT_TRUE(pending_after_forgeries);
  EXPECT_EQ(alice.pending("doc"), nullptr);
  EXPECT_EQ(obj->receipts, 1u);
  EXPECT_EQ(obj->timeouts, 1u);
  EXPECT_EQ(obj->chain.head_version(), 1u);
}

/// An aggregate challenge in flight that the provider never sees, so each
/// case answers it with a forged response.
class AggResponseTest : public ReplyWaitTest {
 protected:
  AggResponseTest()
      : alice_("alice", network_, alice_id_, rng_,
               common::to_bytes("master")),
        bob_("bob", network_, bob_id_, rng_),
        auditor_("auditor", network_, auditor_id_, rng_, ledger_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    auditor_.trust_peer("bob", bob_id_.public_key());
    alice_.store_dyn("bob", "ttp", "doc", common::Bytes(256, 7), 64);
    network_.run();
    txn_ = alice_.object("doc")->txn_id;
    EXPECT_TRUE(auditor_.watch_dyn(alice_, "doc"));
    challenges_ = &record_and_drop("auditor", "bob");
    EXPECT_TRUE(auditor_.challenge_aggregate(txn_, 2));
    EXPECT_EQ(auditor_.outstanding(), 1u);
  }

  /// Forges bob's response, `delay` after the challenge.
  void respond_after(SimTime delay, common::BinaryWriter payload,
                     const pki::Identity* signer = nullptr,
                     common::Bytes data_hash = {}) {
    network_.schedule(delay, [this, payload = std::move(payload), signer,
                              data_hash = std::move(data_hash)]() mutable {
      forge("bob", "auditor", nr::MsgType::kAggResponse, txn_, payload,
            signer, data_hash);
    });
  }

  /// A decodable response about "doc".
  static common::BinaryWriter response_payload() {
    common::BinaryWriter payload;
    payload.str("doc");
    payload.bytes(response_bytes());
    return payload;
  }
  static common::Bytes response_bytes() { return dyn::AggResponse{}.encode(); }

  /// Runs the challenge out and checks it concluded once, with `verdict`,
  /// and was never re-sent.
  void expect_concluded(audit::AuditVerdict verdict) {
    network_.run();
    ASSERT_EQ(ledger_.size(), 1u);
    EXPECT_EQ(ledger_.entries()[0].verdict, verdict);
    EXPECT_EQ(auditor_.outstanding(), 0u);
    EXPECT_EQ(challenges_->size(), 1u);
    EXPECT_EQ(auditor_.counters().flagged, 1u);
    EXPECT_EQ(auditor_.counters().retries, 0u);
  }

  audit::AuditLedger ledger_;
  dyn::DynClientActor alice_;
  dyn::DynProviderActor bob_;
  audit::AuditorActor auditor_;
  std::string txn_;
  const std::vector<SimTime>* challenges_ = nullptr;
};

TEST_F(AggResponseTest, WrongObjectIsMalformed) {
  common::BinaryWriter payload;
  payload.str("other");
  payload.bytes(response_bytes());
  respond_after(1 * kSecond, std::move(payload));
  expect_concluded(audit::AuditVerdict::kMalformed);
  EXPECT_EQ(ledger_.entries()[0].detail, "response names a different object");
}

TEST_F(AggResponseTest, UndecodableIsMalformed) {
  common::BinaryWriter payload;
  payload.str("doc");
  respond_after(1 * kSecond, std::move(payload));
  expect_concluded(audit::AuditVerdict::kMalformed);
  EXPECT_EQ(ledger_.entries()[0].detail, "aggregated response undecodable");
}

TEST_F(AggResponseTest, UnsealedResponseIsBadEvidence) {
  respond_after(1 * kSecond, response_payload());
  expect_concluded(audit::AuditVerdict::kBadEvidence);
  EXPECT_EQ(auditor_.stats().rejected_bad_evidence, 1u);
}

TEST_F(AggResponseTest, DigestMismatchIsBadEvidence) {
  // Bob's evidence is sound, but it covers other bytes than these.
  respond_after(1 * kSecond, response_payload(), &bob_id_,
                crypto::sha256(common::to_bytes("other")));
  expect_concluded(audit::AuditVerdict::kBadEvidence);
  EXPECT_EQ(auditor_.stats().rejected_bad_evidence, 1u);
}

TEST_F(AggResponseTest, BadSignatureIsBadEvidence) {
  // The right digest, signed by someone other than bob.
  respond_after(1 * kSecond, response_payload(), &alice_id_,
                crypto::sha256(response_bytes()));
  expect_concluded(audit::AuditVerdict::kBadEvidence);
  EXPECT_EQ(auditor_.stats().rejected_bad_evidence, 1u);
}

TEST_F(AggResponseTest, LateDuplicateAfterConclusionIsIgnored) {
  common::BinaryWriter wrong;
  wrong.str("other");
  respond_after(1 * kSecond, std::move(wrong));
  respond_after(2 * kSecond, response_payload(), &bob_id_,
                crypto::sha256(response_bytes()));
  expect_concluded(audit::AuditVerdict::kMalformed);
  EXPECT_EQ(auditor_.stats().rejected_bad_evidence, 0u);
}


TEST_F(ReplyWaitTest, NrReceiptWithUnopenableNrrIsRejected) {
  nr::ClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  silent_peer("bob");
  silent_peer("ttp");
  const common::Bytes data = common::to_bytes("d");
  const std::string txn = alice.store("bob", "ttp", "obj", data);
  const nr::ActorStats before = alice.stats();
  network_.schedule(1 * kSecond, [&] {
    // The right hash, but no evidence envelope at all.
    common::BinaryWriter receipt;
    forge("bob", "alice", nr::MsgType::kStoreReceipt, txn, receipt, nullptr,
          crypto::sha256(data));
  });
  expect_receipt_rejected(alice, txn, before);
}

TEST_F(ReplyWaitTest, NrReceiptSignedByAnotherKeyIsRejected) {
  nr::ClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  silent_peer("bob");
  silent_peer("ttp");
  const common::Bytes data = common::to_bytes("d");
  const std::string txn = alice.store("bob", "ttp", "obj", data);
  const nr::ActorStats before = alice.stats();
  network_.schedule(1 * kSecond, [&] {
    // An NRR sealed for alice over the right hash, signed by the TTP's key
    // instead of bob's.
    common::BinaryWriter receipt;
    forge("bob", "alice", nr::MsgType::kStoreReceipt, txn, receipt, &ttp_id_,
          crypto::sha256(data));
  });
  expect_receipt_rejected(alice, txn, before);
}

TEST_F(ReplyWaitTest, TtpAnswersInvalidRequestWhenTheSignedBytesAreNoHeader) {
  nr::TtpActor ttp("ttp", network_, ttp_id_, rng_);
  ttp.trust_peer("alice", alice_id_.public_key());
  ttp.trust_peer("bob", bob_id_.public_key());
  silent_peer("alice");
  silent_peer("bob");
  const auto& queries = record_sends("ttp", "bob");
  const auto& verdicts = record_sends("ttp", "alice");
  const nr::ActorStats before = ttp.stats();

  // Alice's signature is genuine, but what she signed is not a header.
  const common::Bytes not_header = common::to_bytes("not a header");
  common::BinaryWriter request;
  request.str("bob");
  request.str("no NRR");
  request.bytes(not_header);
  request.bytes(alice_id_.sign(not_header));
  request.bytes(common::Bytes{});
  forge("alice", "ttp", nr::MsgType::kResolveRequest, "txn-1", request);
  network_.run();

  ASSERT_EQ(ttp.log().size(), 1u);
  EXPECT_EQ(ttp.log()[0].outcome, "invalid-request");
  EXPECT_EQ(ttp.log()[0].initiator, "alice");
  EXPECT_EQ(ttp.log()[0].respondent, "bob");
  EXPECT_TRUE(queries.empty());
  EXPECT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(ttp.verdicts_resent(), 0u);
  nr::ActorStats expected = before;
  ++expected.sent;  // the verdict
  expect_one_rejection(expected, ttp.stats(), nullptr);
}

/// An auditor that arbitrates alice's fork reports against bob.
class ForkReportTest : public ReplyWaitTest {
 protected:
  ForkReportTest()
      : auditor_("auditor", network_, auditor_id_, rng_, ledger_) {
    auditor_.trust_peer("alice", alice_id_.public_key());
    auditor_.trust_peer("bob", bob_id_.public_key());
    before_ = auditor_.stats();
  }

  /// A decodable proof; no case gets as far as judging it.
  static common::Bytes proof_bytes() {
    consistency::EquivocationProof proof;
    proof.object_key = "obj";
    return proof.encode();
  }

  /// Forges alice's report of `proof` against bob and runs it out.
  void report(const common::Bytes& proof, const pki::Identity* signer,
              common::Bytes data_hash) {
    common::BinaryWriter payload;
    payload.str("bob");
    payload.str("obj");
    payload.str("txn-1");
    payload.bytes(proof);
    forge("alice", "auditor", nr::MsgType::kForkReport, "txn-1", payload,
          signer, std::move(data_hash));
    network_.run();
  }

  /// The report counted as rejected on `reason` and left no other trace.
  void expect_rejected(std::uint64_t nr::ActorStats::*reason) {
    expect_one_rejection(before_, auditor_.stats(), reason);
    EXPECT_EQ(ledger_.size(), 0u);
    EXPECT_EQ(auditor_.counters().forks_detected, 0u);
    EXPECT_EQ(auditor_.counters().fork_reports_rejected, 0u);
    EXPECT_EQ(auditor_.counters().flagged, 0u);
    EXPECT_EQ(auditor_.outstanding(), 0u);
  }

  audit::AuditLedger ledger_;
  audit::AuditorActor auditor_;
  nr::ActorStats before_;
};

TEST_F(ForkReportTest, ProofHashMismatchIsRejected) {
  report(proof_bytes(), &alice_id_,
         crypto::sha256(common::to_bytes("another proof")));
  expect_rejected(&nr::ActorStats::rejected_bad_hash);
}

TEST_F(ForkReportTest, UnopenableEvidenceIsRejected) {
  report(proof_bytes(), nullptr, crypto::sha256(proof_bytes()));
  expect_rejected(&nr::ActorStats::rejected_bad_evidence);
}

TEST_F(ForkReportTest, ForgedReporterSignatureIsRejected) {
  // Sealed for the auditor over the right hash, but signed with bob's key
  // in alice's name.
  report(proof_bytes(), &bob_id_, crypto::sha256(proof_bytes()));
  expect_rejected(&nr::ActorStats::rejected_bad_evidence);
}

/// A chunk challenge in flight that the provider never sees, so each case
/// answers it with a forged response.
class ChunkResponseTest : public ReplyWaitTest {
 protected:
  ChunkResponseTest()
      : tree_(common::Bytes(256, 7), 64),
        auditor_("auditor", network_, auditor_id_, rng_, ledger_) {
    auditor_.trust_peer("bob", bob_id_.public_key());
    audit::AuditTarget target;
    target.txn_id = "txn-1";
    target.provider = "bob";
    target.object_key = "obj";
    target.root = tree_.root();
    target.chunk_size = 64;
    target.chunk_count = 4;
    EXPECT_TRUE(auditor_.register_target(target));
    silent_peer("bob");
    challenges_ = &record_sends("auditor", "bob");
    EXPECT_TRUE(auditor_.challenge("txn-1", 0));
    EXPECT_EQ(auditor_.outstanding(), 1u);
    before_ = auditor_.stats();
  }

  static common::Bytes chunk() { return common::Bytes(64, 7); }

  /// The payload of a decodable response for chunk 0 with its true proof.
  common::BinaryWriter response_payload() const {
    common::BinaryWriter payload;
    payload.u64(0);
    payload.bytes(chunk());
    payload.bytes(nr::encode_proof(tree_.prove(0)));
    return payload;
  }

  /// Forges bob's response one second after the challenge.
  void respond(common::BinaryWriter payload,
               const pki::Identity* signer = nullptr,
               common::Bytes data_hash = {}) {
    network_.schedule(1 * kSecond, [this, payload = std::move(payload), signer,
                                    data_hash = std::move(data_hash)]() mutable {
      forge("bob", "auditor", nr::MsgType::kChunkResponse, "txn-1", payload,
            signer, data_hash);
    });
  }

  /// Runs the challenge out and checks it concluded once with `verdict`,
  /// was never re-sent, and moved no stat but `reason`.
  void expect_concluded(audit::AuditVerdict verdict,
                        std::uint64_t nr::ActorStats::*reason) {
    network_.run();
    ASSERT_EQ(ledger_.size(), 1u);
    EXPECT_EQ(ledger_.entries()[0].verdict, verdict);
    EXPECT_EQ(ledger_.entries()[0].chunk_index, 0u);
    EXPECT_EQ(auditor_.outstanding(), 0u);
    EXPECT_EQ(challenges_->size(), 1u);
    EXPECT_EQ(auditor_.counters().flagged, 1u);
    EXPECT_EQ(auditor_.counters().verified, 0u);
    EXPECT_EQ(auditor_.counters().retries, 0u);
    expect_one_rejection(before_, auditor_.stats(), reason);
  }

  crypto::MerkleTree tree_;
  audit::AuditLedger ledger_;
  audit::AuditorActor auditor_;
  const std::vector<SimTime>* challenges_ = nullptr;
  nr::ActorStats before_;
};

TEST_F(ChunkResponseTest, UndecodableProofIsMalformed) {
  common::BinaryWriter payload;
  payload.u64(0);
  payload.bytes(chunk());
  payload.bytes(common::to_bytes("not a proof"));
  respond(std::move(payload), &bob_id_, crypto::sha256(chunk()));
  expect_concluded(audit::AuditVerdict::kMalformed, nullptr);
  EXPECT_EQ(ledger_.entries()[0].detail, "chunk or proof undecodable");
}

TEST_F(ChunkResponseTest, UnopenableEvidenceIsBadEvidence) {
  respond(response_payload(), nullptr, crypto::sha256(chunk()));
  expect_concluded(audit::AuditVerdict::kBadEvidence,
                   &nr::ActorStats::rejected_bad_evidence);
}

TEST_F(ChunkResponseTest, SignaturesByAnotherKeyAreBadEvidence) {
  // The true chunk and proof over the right hash, signed by alice in bob's
  // name.
  respond(response_payload(), &alice_id_, crypto::sha256(chunk()));
  expect_concluded(audit::AuditVerdict::kBadEvidence,
                   &nr::ActorStats::rejected_bad_evidence);
}

/// A shared object ("shared", four 64-byte chunks) that alice stored on
/// bob, and an update of it that bob committed as version 2 but whose commit
/// never reaches alice: her mirror holds version 1 and the update is still
/// in flight. Each case forges messages at alice one second into the
/// update's 15 s wait and checks, a second later, that they moved their
/// own counters and nothing else: not the mirror, not the chain, not the
/// pending op.
class ConsClientRejectTest : public ReplyWaitTest {
 protected:
  using Counters = std::map<std::string, std::uint64_t>;

  ConsClientRejectTest()
      : alice_("alice", network_, alice_id_, rng_),
        bob_("bob", network_, bob_id_, rng_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    alice_.trust_peer("carol", pooled("carol").public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    alice_.store_shared("bob", "ttp", "shared", common::Bytes(256, 7), 64);
    network_.run();
    EXPECT_TRUE(alice_.object("shared")->opened);

    network_.set_adversary("alice", "bob", [this](const net::Envelope& env) {
      if (nr::NrMessage::decode(env.payload).header.flag ==
          nr::MsgType::kViewQuery) {
        ++view_queries_;
      }
      return net::AdversaryAction{};
    });
    // Bob's own replies (all under alice's txn) are lost; forgeries pass.
    network_.set_adversary("bob", "alice", [this](const net::Envelope& env) {
      const bool from_bob = nr::NrMessage::decode(env.payload).header.txn_id ==
                            alice_.object("shared")->txn_id;
      return from_bob ? net::AdversaryAction{
                            net::AdversaryAction::Kind::kDrop, {}}
                      : net::AdversaryAction{};
    });
    EXPECT_TRUE(alice_.update("shared", 0, common::Bytes(64, 9)));
    before_ = counters();
    forged_before_ = next_forged_seq_;
  }

  Counters counters() const {
    const auto* obj = alice_.object("shared");
    const auto* pending = alice_.pending("shared");
    const nr::ActorStats& s = alice_.stats();
    return {{"sent", s.sent},
            {"received", s.received},
            {"accepted", s.accepted},
            {"rejected_unknown_sender", s.rejected_unknown_sender},
            {"rejected_expired", s.rejected_expired},
            {"rejected_replay", s.rejected_replay},
            {"rejected_bad_sequence", s.rejected_bad_sequence},
            {"rejected_bad_hash", s.rejected_bad_hash},
            {"rejected_bad_evidence", s.rejected_bad_evidence},
            {"rejected_wrong_addressee", s.rejected_wrong_addressee},
            {"head_version", obj->chain.head_version()},
            {"view_head_seq", obj->checker->view().head_seq()},
            {"commits_applied", obj->commits_applied},
            {"receipts", obj->receipts},
            {"duplicate_commits", obj->duplicate_commits},
            {"rejected", obj->rejected},
            {"stale_resubmits", obj->stale_resubmits},
            {"timeouts", obj->timeouts},
            {"suspicions", obj->checker->suspicions()},
            {"forks_detected", alice_.forks_detected()},
            {"fork_reported", obj->fork_reported ? 1u : 0u},
            {"pending_version", pending ? pending->record.version : 0},
            {"view_queries", view_queries_}};
  }

  /// Bob's committed op at `version` (his log runs from version 1).
  const consistency::CommittedOp& bob_op(std::uint64_t version) const {
    return bob_.object_state("shared")->branches[0].log.at(version - 1);
  }

  /// `view` under bob's true signature.
  consistency::SignedViewCommitment signed_by_bob(
      consistency::ViewCommitment view) const {
    common::Bytes sig = bob_id_.sign(view.encode());
    return {std::move(view), std::move(sig)};
  }

  void forge_commit(const consistency::CommittedOp& op) {
    common::BinaryWriter payload;
    payload.str("shared");
    payload.u32(64);
    payload.bytes(op.encode());
    forge("bob", "alice", nr::MsgType::kConsCommit, "forged", payload);
  }

  void forge_gossip(const consistency::SignedViewCommitment& commit) {
    common::BinaryWriter payload;
    payload.str("shared");
    payload.u32(1);
    payload.bytes(commit.encode());
    forge("carol", "alice", nr::MsgType::kGossipViews, "gossip", payload);
  }

  /// Runs `forgery` one second into the update's wait.
  void at_one_second(std::function<void()> forgery) {
    network_.schedule(1 * kSecond, std::move(forgery));
  }

  /// Alice's counters and mirror.
  struct State {
    Counters counters;
    common::Bytes root;
    std::vector<common::Bytes> chunks;
  };
  State state() const {
    const auto* obj = alice_.object("shared");
    return {counters(), obj->tree.root(), obj->chunks};
  }

  /// Runs the forgeries out; alice's state two seconds into the wait, and
  /// the counters it started from plus one received and accepted message
  /// per forgery.
  std::pair<State, Counters> run_out() {
    State after;
    network_.schedule(2 * kSecond, [&] { after = state(); });
    network_.run();
    Counters expected = before_;
    expected["received"] += next_forged_seq_ - forged_before_;
    expected["accepted"] += next_forged_seq_ - forged_before_;
    return {std::move(after), std::move(expected)};
  }

  /// Runs the forgeries out and checks that they changed alice's counters
  /// by `move` only, and her mirror not at all.
  void expect_only(const std::function<void(Counters&)>& move) {
    const State before = state();
    auto [after, expected] = run_out();
    move(expected);
    EXPECT_EQ(after.counters, expected);
    EXPECT_EQ(after.root, before.root);
    EXPECT_EQ(after.chunks, before.chunks);
  }

  consistency::ConsClientActor alice_;
  consistency::ConsProviderActor bob_;
  std::uint64_t view_queries_ = 0;
  Counters before_;
  std::uint64_t forged_before_ = 0;
};

TEST_F(ConsClientRejectTest, FixtureLeavesTheUpdatePendingOnVersionOne) {
  EXPECT_EQ(before_.at("head_version"), 1u);
  EXPECT_EQ(before_.at("pending_version"), 2u);
  // Bob's true commit settles the update: version 2 applied, the op retired
  // as its own receipt.
  at_one_second([this] { forge_commit(bob_op(2)); });
  auto [after, expected] = run_out();
  expected["head_version"] = 2;
  expected["view_head_seq"] = 2;
  ++expected["commits_applied"];
  ++expected["receipts"];
  expected["pending_version"] = 0;
  EXPECT_EQ(after.counters, expected);
  EXPECT_EQ(after.root, bob_op(2).record.record.new_root);
  EXPECT_EQ(after.chunks,
            bob_.object_state("shared")->branches[0].chunks);
}

TEST_F(ConsClientRejectTest, CommitWithBadProviderSignatureIsBadEvidence) {
  at_one_second([this] {
    consistency::CommittedOp op = bob_op(2);
    op.commit.provider_sig[0] ^= 0x01;
    forge_commit(op);
  });
  expect_only([](Counters& c) { ++c["rejected_bad_evidence"]; });
}

TEST_F(ConsClientRejectTest, CommitConflictingAtAnOccupiedPositionIsAFork) {
  at_one_second([this] {
    // Position 1, which alice holds, signed again with other contents.
    consistency::CommittedOp op = bob_op(1);
    consistency::ViewCommitment view = op.commit.view;
    view.client = "carol";
    op.commit = signed_by_bob(std::move(view));
    forge_commit(op);
  });
  expect_only([](Counters& c) {
    ++c["forks_detected"];
    c["fork_reported"] = 1;
  });
  ASSERT_NE(alice_.fork_proof("shared"), nullptr);
  EXPECT_TRUE(alice_.fork_proof("shared")->valid(bob_id_.public_key()));
}

TEST_F(ConsClientRejectTest, CommitSkippingPositionsAsksForTheView) {
  at_one_second([this] {
    consistency::CommittedOp op = bob_op(2);
    consistency::ViewCommitment view = op.commit.view;
    view.global_seq = 3;  // alice holds position 1 only
    op.commit = signed_by_bob(std::move(view));
    forge_commit(op);
  });
  expect_only([](Counters& c) {
    ++c["suspicions"];
    ++c["view_queries"];
    ++c["sent"];
  });
}

TEST_F(ConsClientRejectTest, ReplayedCommitOfAnAppliedVersionIsADuplicate) {
  at_one_second([this] { forge_commit(bob_op(1)); });
  expect_only([](Counters& c) { ++c["duplicate_commits"]; });
}

TEST_F(ConsClientRejectTest, CommitNamingAnotherObjectIsBadHash) {
  at_one_second([this] {
    consistency::CommittedOp op = bob_op(2);
    consistency::ViewCommitment view = op.commit.view;
    view.object_key = "other";
    op.commit = signed_by_bob(std::move(view));
    forge_commit(op);
  });
  expect_only([](Counters& c) { ++c["rejected_bad_hash"]; });
}

TEST_F(ConsClientRejectTest, ViewUpdateWithAnotherChunkSizeIsBadHash) {
  // Bob's true log, which would advance alice to version 2, under a
  // chunk size that is not the object's.
  at_one_second([this] {
    common::BinaryWriter payload;
    payload.str("shared");
    payload.u32(32);
    consistency::write_op_log(payload, bob_.object_state("shared")->
                                           branches[0].log);
    forge("bob", "alice", nr::MsgType::kViewUpdate, "forged", payload);
  });
  expect_only([](Counters& c) { ++c["rejected_bad_hash"]; });
}

TEST_F(ConsClientRejectTest, StaleBouncePastTheResubmitBudgetDropsTheOp) {
  at_one_second([this] {
    for (std::size_t i = 0; i <= consistency::kMaxResubmits; ++i) {
      common::BinaryWriter error;
      error.str("shared");
      error.u64(2);
      error.str("stale view");
      consistency::write_op_log(error, {});
      forge("bob", "alice", nr::MsgType::kConsOpError, "bounce", error);
    }
  });
  expect_only([](Counters& c) {
    // kMaxResubmits rebuilds of version 2, each re-sent; the next bounce
    // drops the op.
    c["stale_resubmits"] += consistency::kMaxResubmits;
    c["sent"] += consistency::kMaxResubmits;
    ++c["rejected"];
    c["pending_version"] = 0;
  });
}

TEST_F(ConsClientRejectTest, GossipThatGapsResyncsWithoutAccusing) {
  at_one_second([this] {
    consistency::ViewCommitment view = bob_op(2).commit.view;
    view.global_seq = 3;
    forge_gossip(signed_by_bob(std::move(view)));
  });
  expect_only([](Counters& c) {
    ++c["suspicions"];
    ++c["view_queries"];
    ++c["sent"];
  });
  EXPECT_EQ(alice_.fork_proof("shared"), nullptr);
}

TEST_F(ConsClientRejectTest, GossipThatFailsToLinkResyncsWithoutAccusing) {
  at_one_second([this] {
    // The next position, but linked to a head alice never saw.
    consistency::ViewCommitment view = bob_op(2).commit.view;
    view.prev_commit_hash = common::Bytes(32, 0x55);
    forge_gossip(signed_by_bob(std::move(view)));
  });
  expect_only([](Counters& c) {
    ++c["suspicions"];
    ++c["view_queries"];
    ++c["sent"];
  });
  EXPECT_EQ(alice_.fork_proof("shared"), nullptr);
}

}  // namespace
}  // namespace tpnr
