// Fault-tolerance tests for the TPNR actors: duplicate deliveries must not
// move state or append evidence twice, app-level retries must be idempotent
// at the provider and the TTP, late timers must not resurrect settled
// transactions, and seeded chaos (loss + duplication + reordering +
// partitions + TTP outages) must never produce contradictory evidence.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/serial.h"
#include "net/network.h"
#include "net/reliable.h"
#include "nr/client.h"
#include "nr/provider.h"
#include "nr/ttp.h"
#include "persist/journal.h"

namespace tpnr::nr {
namespace {

using common::kMillisecond;
using common::kSecond;
using common::to_bytes;

/// Shared deterministic identities (RSA keygen is the slow part).
const pki::Identity& test_identity(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{70707});
    for (const char* id : {"alice", "bob", "ttp"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

/// Journal that only counts: lets a test assert "exactly one NRO/NRR was
/// appended" no matter how many times the wire delivered the message.
struct CountingJournal final : persist::Journal {
  std::map<persist::RecordType, std::uint64_t> counts;
  std::uint64_t next_lsn = 1;
  std::uint64_t record(persist::RecordType type, common::BytesView) override {
    ++counts[type];
    return next_lsn++;
  }
  [[nodiscard]] std::uint64_t evidence_count() const {
    const auto it = counts.find(persist::RecordType::kEvidence);
    return it == counts.end() ? 0 : it->second;
  }
};

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest()
      : network_(77),
        rng_(std::uint64_t{2000}),
        alice_id_(test_identity("alice")),
        bob_id_(test_identity("bob")),
        ttp_id_(test_identity("ttp")) {}

  void spawn(ClientOptions options = ClientOptions{},
             bool reliable = false) {
    alice_ = std::make_unique<ClientActor>("alice", network_, alice_id_, rng_,
                                           options);
    bob_ = std::make_unique<ProviderActor>("bob", network_, bob_id_, rng_);
    ttp_ = std::make_unique<TtpActor>("ttp", network_, ttp_id_, rng_);
    alice_->trust_peer("bob", bob_id_.public_key());
    alice_->trust_peer("ttp", ttp_id_.public_key());
    bob_->trust_peer("alice", alice_id_.public_key());
    bob_->trust_peer("ttp", ttp_id_.public_key());
    ttp_->trust_peer("alice", alice_id_.public_key());
    ttp_->trust_peer("bob", bob_id_.public_key());
    alice_->set_journal(&alice_journal_);
    bob_->set_journal(&bob_journal_);
    if (reliable) {
      alice_->use_reliable(11);
      bob_->use_reliable(22);
      ttp_->use_reliable(33);
    }
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  pki::Identity ttp_id_;
  CountingJournal alice_journal_;
  CountingJournal bob_journal_;
  std::unique_ptr<ClientActor> alice_;
  std::unique_ptr<ProviderActor> bob_;
  std::unique_ptr<TtpActor> ttp_;
};

// --- Satellite bugfix: late timers must respect the current state ---------

TEST_F(ChaosTest, NrrJustBeforeReceiptTimerLeavesTxnCompleted) {
  // The NRR lands a hair BEFORE the receipt timer fires. The stale timer
  // must be a no-op: without the state guard it would call resolve() on a
  // finished transaction and un-settle it.
  spawn();
  net::LinkConfig slow;
  slow.latency = 7450 * kMillisecond;  // round trip 14.9 s < 15 s wait
  network_.set_default_link(slow);

  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();

  const auto* state = alice_->transaction(txn);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->state, TxnState::kCompleted);
  EXPECT_EQ(ttp_->stats().received, 0u);  // the timer never escalated
  // The full timeline is two entries: pending -> completed. No bounce
  // through resolve states.
  ASSERT_EQ(state->history_size(), 2u);
  EXPECT_EQ(state->history_entry(1).second, TxnState::kCompleted);
}

TEST_F(ChaosTest, ResolveOnSettledTxnDoesNotUnsettleIt) {
  spawn();
  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();
  ASSERT_EQ(alice_->transaction(txn)->state, TxnState::kCompleted);

  // A stray resolve (late timer, confused caller) still queries the TTP,
  // but the local state must not move — and the verdict that comes back
  // must be ignored by the state guard.
  alice_->resolve(txn, "stray resolve after completion");
  network_.run();
  EXPECT_EQ(alice_->transaction(txn)->state, TxnState::kCompleted);
  EXPECT_EQ(alice_->transaction(txn)->resolve_attempts, 0u);
  EXPECT_EQ(alice_journal_.evidence_count(), 1u);  // the one NRR, once
}

// --- Duplicate delivery is state-inert at every actor ---------------------

TEST_F(ChaosTest, WireDuplicatesChangeNoStateWithReliableChannels) {
  ClientOptions options;
  spawn(options, /*reliable=*/true);
  net::LinkConfig dup;
  dup.latency = kMillisecond;
  dup.duplicate_probability = 1.0;  // EVERY frame delivered twice
  network_.set_default_link(dup);

  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();

  EXPECT_EQ(alice_->transaction(txn)->state, TxnState::kCompleted);
  // The channel suppressed every duplicate below the protocol layer...
  EXPECT_GT(alice_->reliable_channel()->stats().dups_suppressed +
                bob_->reliable_channel()->stats().dups_suppressed,
            0u);
  // ...so each evidence artifact was journalled exactly once and the
  // provider never re-processed the store.
  EXPECT_EQ(alice_journal_.evidence_count(), 1u);  // the NRR
  EXPECT_EQ(bob_journal_.evidence_count(), 1u);    // the NRO
  EXPECT_EQ(bob_->receipts_resent(), 0u);
  ASSERT_EQ(alice_->transaction(txn)->history.size(), 2u);
}

TEST_F(ChaosTest, WireDuplicatesAreScreenedWithoutChannelsToo) {
  // Raw actors (no reliable channel): the §5.4 nonce screen is the dedup
  // of last resort for byte-identical redeliveries.
  spawn();
  net::LinkConfig dup;
  dup.latency = kMillisecond;
  dup.duplicate_probability = 1.0;
  network_.set_default_link(dup);

  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();

  EXPECT_EQ(alice_->transaction(txn)->state, TxnState::kCompleted);
  EXPECT_GT(alice_->stats().rejected_replay + bob_->stats().rejected_replay,
            0u);
  EXPECT_EQ(alice_journal_.evidence_count(), 1u);
  EXPECT_EQ(bob_journal_.evidence_count(), 1u);
  ASSERT_EQ(alice_->transaction(txn)->history.size(), 2u);
}

// --- App-level retries are idempotent at the provider ---------------------

TEST_F(ChaosTest, RetriedStoreReissuesReceiptWithoutRestoringOrRejournal) {
  ClientOptions options;
  options.store_retries = 2;
  spawn(options);

  // The first receipt is swallowed; the store retry must succeed without
  // the provider re-storing or re-journalling anything.
  int receipts_seen = 0;
  network_.set_adversary("bob", "alice", [&receipts_seen](const net::Envelope&) {
    net::AdversaryAction action;
    if (++receipts_seen == 1) action.kind = net::AdversaryAction::Kind::kDrop;
    return action;
  });

  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();

  const auto* state = alice_->transaction(txn);
  EXPECT_EQ(state->state, TxnState::kCompleted);
  EXPECT_EQ(state->store_attempts, 2u);
  EXPECT_EQ(bob_->receipts_resent(), 1u);
  EXPECT_EQ(bob_journal_.evidence_count(), 1u);  // NRO journalled once
  EXPECT_EQ(ttp_->stats().received, 0u);         // no escalation needed
}

TEST_F(ChaosTest, RetriedStoreWithDifferentHashIsRejected) {
  spawn();
  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();
  ASSERT_EQ(alice_->transaction(txn)->state, TxnState::kCompleted);
  const Bytes original_hash = alice_->transaction(txn)->data_hash;

  // Craft a "retry" under the SAME txn id but over different bytes — a
  // valid header and NRO (we hold Alice's key), fresh nonce, higher seq.
  // The provider must treat it as an attack on the known transaction, not
  // re-issue a receipt for it.
  const Bytes other_data = to_bytes("something else entirely");
  MessageHeader h;
  h.flag = MsgType::kStoreRequest;
  h.sender = "alice";
  h.recipient = "bob";
  h.ttp = "ttp";
  h.txn_id = txn;
  h.seq_no = 1000;
  h.nonce = rng_.bytes(16);
  h.time_limit = network_.now() + 10 * kSecond;
  h.data_hash = crypto::sha256(other_data);
  NrMessage forged;
  forged.evidence =
      make_evidence(alice_id_, bob_id_.public_key(), h, rng_);
  forged.header = h;
  common::BinaryWriter payload;
  payload.str("obj");
  payload.bytes(other_data);
  payload.u32(0);
  forged.payload = payload.take();

  const std::uint64_t receipts_before = bob_->stats().sent;
  network_.send("alice", "bob", "nr", forged.encode());
  network_.run();

  EXPECT_EQ(bob_->stats().rejected_bad_hash, 1u);
  EXPECT_EQ(bob_->stats().sent, receipts_before);  // no receipt re-issued
  EXPECT_EQ(bob_->receipts_resent(), 0u);
  EXPECT_EQ(bob_journal_.evidence_count(), 1u);
  // The stored transaction is untouched.
  EXPECT_EQ(bob_->transaction(txn)->data_hash, original_hash);
}

// --- TTP outages and duplicate resolves -----------------------------------

TEST_F(ChaosTest, ResolveRetriesRideOutTtpDownWindow) {
  ClientOptions options;
  options.resolve_retries = 3;
  spawn(options);
  ProviderBehavior unfair;
  unfair.send_store_receipts = false;  // force the escalation
  bob_->set_behavior(unfair);

  // TTP is down across the first escalation (receipt timer fires at 15s);
  // it comes back before the retries are exhausted.
  network_.set_endpoint_down("ttp", 0, 40 * kSecond);

  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();

  const auto* state = alice_->transaction(txn);
  ASSERT_NE(state, nullptr);
  // Once the TTP is reachable it relays Bob's receipt: the session
  // completes through the Resolve path despite the outage.
  EXPECT_EQ(state->state, TxnState::kResolvedCompleted);
  EXPECT_GE(state->resolve_attempts, 2u);
  bool retried = false;
  for (std::size_t i = 0; i < state->history_size(); ++i) {
    if (state->history_entry(i).second == TxnState::kResolveRetrying) {
      retried = true;
    }
  }
  EXPECT_TRUE(retried);
  EXPECT_GT(network_.stats().messages_dropped_endpoint_down, 0u);
}

TEST_F(ChaosTest, PermanentTtpOutageParksTxnAsUnreachable) {
  ClientOptions options;
  options.resolve_retries = 2;
  spawn(options);
  ProviderBehavior unfair;
  unfair.send_store_receipts = false;
  bob_->set_behavior(unfair);
  network_.set_endpoint_down("ttp", 0, 3600 * kSecond);  // never up

  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();

  const auto* state = alice_->transaction(txn);
  EXPECT_EQ(state->state, TxnState::kTtpUnreachable);
  EXPECT_EQ(state->resolve_attempts, 3u);  // initial + 2 retries
  EXPECT_TRUE(txn_state_terminal(state->state));
  EXPECT_GT(state->finished_at, 0);
}

TEST_F(ChaosTest, DuplicateResolveRequestAnsweredFromCachedVerdict) {
  ClientOptions options;
  options.resolve_retries = 2;
  spawn(options);
  ProviderBehavior silent;
  silent.send_store_receipts = false;
  silent.respond_to_resolve = false;  // TTP will decide "no-response"
  bob_->set_behavior(silent);

  // The first verdict is lost, so the client re-sends the resolve request.
  // The TTP must answer from its cached verdict: same statement bytes, one
  // log entry total.
  int verdicts_seen = 0;
  network_.set_adversary("ttp", "alice",
                         [&verdicts_seen](const net::Envelope&) {
                           net::AdversaryAction action;
                           if (++verdicts_seen == 1) {
                             action.kind = net::AdversaryAction::Kind::kDrop;
                           }
                           return action;
                         });

  const std::string txn = alice_->store("bob", "ttp", "obj", to_bytes("d"));
  network_.run();

  const auto* state = alice_->transaction(txn);
  EXPECT_EQ(state->state, TxnState::kResolvedFailed);
  EXPECT_EQ(ttp_->verdicts_resent(), 1u);
  ASSERT_EQ(ttp_->log().size(), 1u);
  EXPECT_EQ(ttp_->log()[0].outcome, "no-response");
  // The re-sent statement verified against the TTP key at the client.
  EXPECT_EQ(state->ttp_statement, ttp_->log()[0].statement);
}

// --- Property: chaos never produces contradictory evidence ----------------

struct TrialOutcome {
  TxnState state = TxnState::kStorePending;
  bool has_nrr = false;
  bool has_abort_receipt = false;
  std::uint64_t messages_delivered = 0;
  std::uint64_t retransmissions = 0;
};

TrialOutcome run_chaos_trial(std::uint64_t seed, bool abort_midway) {
  net::Network network(seed);
  crypto::Drbg rng(seed * 7919 + 1);
  ClientOptions options;
  options.store_retries = 2;
  options.resolve_retries = 2;
  ClientActor alice("alice", network, const_cast<pki::Identity&>(
                                          test_identity("alice")),
                    rng, options);
  ProviderActor bob("bob", network,
                    const_cast<pki::Identity&>(test_identity("bob")), rng);
  TtpActor ttp("ttp", network, const_cast<pki::Identity&>(
                                   test_identity("ttp")), rng);
  alice.trust_peer("bob", test_identity("bob").public_key());
  alice.trust_peer("ttp", test_identity("ttp").public_key());
  bob.trust_peer("alice", test_identity("alice").public_key());
  bob.trust_peer("ttp", test_identity("ttp").public_key());
  ttp.trust_peer("alice", test_identity("alice").public_key());
  ttp.trust_peer("bob", test_identity("bob").public_key());
  alice.use_reliable(seed + 1);
  bob.use_reliable(seed + 2);
  ttp.use_reliable(seed + 3);

  net::LinkConfig chaos;
  chaos.latency = 5 * kMillisecond;
  chaos.jitter = 10 * kMillisecond;
  chaos.loss_probability = 0.2;
  chaos.duplicate_probability = 0.1;
  chaos.reorder_probability = 0.2;
  chaos.reorder_window = 50 * kMillisecond;
  network.set_default_link(chaos);
  // A mid-flight partition between client and provider.
  network.partition("alice", "bob", 40 * kMillisecond, 400 * kMillisecond);

  const std::string txn = alice.store("bob", "ttp", "obj",
                                      to_bytes("chaos payload"));
  if (abort_midway) {
    // Abort only if the txn is genuinely still in flight — aborting an
    // already-settled transaction is a caller error, not chaos.
    network.schedule(20 * kMillisecond, [&alice, txn] {
      const auto* state = alice.transaction(txn);
      if (state != nullptr && state->state == TxnState::kStorePending) {
        alice.abort(txn);
      }
    });
  }
  network.run();

  const auto* state = alice.transaction(txn);
  TrialOutcome outcome;
  outcome.state = state->state;
  outcome.has_nrr = state->nrr.has_value();
  outcome.has_abort_receipt = state->abort_receipt.has_value();
  outcome.messages_delivered = network.stats().messages_delivered;
  outcome.retransmissions =
      alice.reliable_channel()->stats().retransmissions +
      bob.reliable_channel()->stats().retransmissions +
      ttp.reliable_channel()->stats().retransmissions;

  // Evidence safety, checked with the VERIFYING accessors.
  if (outcome.state == TxnState::kCompleted ||
      outcome.state == TxnState::kResolvedCompleted) {
    const auto nrr = alice.present_nrr(txn);
    EXPECT_TRUE(nrr.has_value()) << "seed " << seed;
    if (nrr) {
      EXPECT_TRUE(verify_evidence_signatures(test_identity("bob").public_key(),
                                             nrr->first, nrr->second))
          << "seed " << seed;
    }
  }
  if (outcome.state == TxnState::kAborted) {
    EXPECT_TRUE(outcome.has_abort_receipt) << "seed " << seed;
  }
  // Never both artifacts: completing AND aborting one txn is the
  // contradiction non-repudiation exists to prevent.
  EXPECT_FALSE(outcome.has_nrr && outcome.has_abort_receipt)
      << "seed " << seed;

  // Network conservation after drain.
  const net::NetworkStats& s = network.stats();
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped_loss +
                s.messages_dropped_adversary + s.messages_dropped_partition +
                s.messages_dropped_endpoint_down)
      << "seed " << seed;
  return outcome;
}

TEST(ChaosPropertyTest, SeededTrialsNeverProduceContradictoryEvidence) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const bool abort_midway = (seed % 3 == 0);
    const TrialOutcome outcome = run_chaos_trial(seed, abort_midway);
    // With retries enabled every trial must reach a terminal state — chaos
    // may force the TTP path, but nothing may wedge as pending forever.
    EXPECT_TRUE(txn_state_terminal(outcome.state) ||
                outcome.state == TxnState::kTimedOut)
        << "seed " << seed << " ended " << txn_state_name(outcome.state);
    if (!abort_midway) {
      EXPECT_TRUE(outcome.state == TxnState::kCompleted ||
                  outcome.state == TxnState::kResolvedCompleted)
          << "seed " << seed << " ended " << txn_state_name(outcome.state);
    }
  }
}

TEST(ChaosPropertyTest, TrialsAreBitReproducible) {
  const TrialOutcome a = run_chaos_trial(5, false);
  const TrialOutcome b = run_chaos_trial(5, false);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.retransmissions, b.retransmissions);

  const TrialOutcome c = run_chaos_trial(6, false);
  EXPECT_TRUE(a.messages_delivered != c.messages_delivered ||
              a.retransmissions != c.retransmissions);
}

}  // namespace
}  // namespace tpnr::nr
