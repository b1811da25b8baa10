// Hostile element counts. Several decoders read a u32 element count off the
// wire (or disk) before any element; a count of 0xffffffff must come back
// as a SerialError — the only exception the actors' decode paths catch —
// never as std::bad_alloc from sizing a buffer for elements the input
// cannot hold. The actor-level cases check that one such message leaves
// network.run() without an exception escaping NrActor::receive.
//
// Truncated payloads. A handler reached past its guards by a payload that
// does not decode must reject it through NrActor::receive: one
// rejected_bad_hash and no other state change.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/serial.h"
#include "consistency/client.h"
#include "consistency/op_log.h"
#include "consistency/provider.h"
#include "crypto/drbg.h"
#include "dyn/client.h"
#include "dyn/por_tags.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/chunked.h"
#include "nr/client.h"
#include "nr/provider.h"
#include "nr/ttp.h"
#include "persist/crc32c.h"
#include "persist/snapshot.h"

namespace tpnr {
namespace {

using common::Bytes;

constexpr std::uint32_t kHostileCount = 0xffffffffu;

TEST(HostileCountTest, OpLogRejectsHostileCount) {
  common::BinaryWriter w;
  w.u32(kHostileCount);
  common::BinaryReader r(w.data());
  EXPECT_THROW(consistency::read_op_log(r), common::SerialError);
}

TEST(HostileCountTest, ChunkProofRejectsHostileCount) {
  common::BinaryWriter w;
  w.u64(0);
  w.u64(1);
  w.u32(kHostileCount);
  EXPECT_THROW(nr::decode_proof(w.data()), common::SerialError);
}

TEST(HostileCountTest, AggResponseRejectsHostileCount) {
  common::BinaryWriter w;
  w.u64(1);
  w.bytes(Bytes(32, 0));
  w.u64(0);
  w.u32(kHostileCount);
  EXPECT_THROW(dyn::AggResponse::decode(w.data()), common::SerialError);
}

TEST(HostileCountTest, SnapshotWithHostileCountIsDamage) {
  // A CRC-valid image whose ledger count is hostile: decode() reports
  // damage (nullopt) instead of throwing.
  common::BinaryWriter body;
  body.u64(0);
  body.u32(kHostileCount);
  const Bytes body_bytes = body.take();
  common::BinaryWriter image;
  image.u32(persist::Snapshotter::kMagic);
  image.u32(persist::Snapshotter::kVersion);
  image.u32(static_cast<std::uint32_t>(body_bytes.size()));
  image.u32(persist::crc32c(body_bytes));
  Bytes bytes = image.take();
  bytes.insert(bytes.end(), body_bytes.begin(), body_bytes.end());
  EXPECT_NO_THROW({
    EXPECT_FALSE(persist::Snapshotter::decode(bytes).has_value());
  });
}

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{60606});
    for (const char* id : {"alice", "bob", "ttp", "carol"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

/// One raw message from `from` (whose key `to` trusts) to `to`.
/// A txn the sender already spoke in needs a `seq_no` past its last one.
void send_raw(net::Network& network, crypto::Drbg& rng, const std::string& from,
              const std::string& to, nr::MsgType flag, Bytes payload,
              const std::string& txn_id = "hostile", std::uint64_t seq_no = 1) {
  nr::NrMessage message;
  message.header.flag = flag;
  message.header.sender = from;
  message.header.recipient = to;
  message.header.txn_id = txn_id;
  message.header.seq_no = seq_no;
  message.header.nonce = rng.bytes(16);
  message.payload = std::move(payload);
  network.send(from, to, "nr", message.encode());
}

class HostileMessageTest : public ::testing::Test {
 protected:
  HostileMessageTest()
      : network_(std::uint64_t{6060}),
        rng_(std::uint64_t{6061}),
        alice_id_(pooled("alice")),
        bob_id_(pooled("bob")) {}

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
};

TEST_F(HostileMessageTest, ViewUpdateWithHostileLogCount) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u32(64);
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "bob", "alice", nr::MsgType::kViewUpdate,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
}

TEST_F(HostileMessageTest, OpErrorWithHostileSuffixCount) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u64(2);
  payload.str("stale view");
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "bob", "alice", nr::MsgType::kConsOpError,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
}

TEST_F(HostileMessageTest, GossipWithHostileCommitCount) {
  consistency::ConsClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "bob", "alice", nr::MsgType::kGossipViews,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
}

TEST_F(HostileMessageTest, DynStoreWithHostileTagCount) {
  dyn::DynProviderActor bob("bob", network_, bob_id_, rng_);
  bob.trust_peer("alice", alice_id_.public_key());
  common::BinaryWriter payload;
  payload.str("doc");
  payload.u32(64);
  payload.bytes(Bytes(64, 1));
  payload.u32(kHostileCount);
  send_raw(network_, rng_, "alice", "bob", nr::MsgType::kDynStoreRequest,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  EXPECT_EQ(bob.stats().rejected_bad_hash, 1u);
  EXPECT_EQ(bob.object_state("doc"), nullptr);
}

/// A joined client's object has chunk size 0 until the provider names it.
/// Here alice stores "shared" via bob and carol joins it, but bob's answer
/// to carol's view query is lost, so her chunk size is still 0 when bob's
/// own provider-signed log reaches her naming chunk size 0. The v1 store it
/// carries cannot be sliced at that size: the commit is refused (counted in
/// `rejected`), and no exception may escape network.run().
class ZeroChunkSizeTest : public HostileMessageTest {
 protected:
  ZeroChunkSizeTest()
      : carol_id_(pooled("carol")),
        alice_("alice", network_, alice_id_, rng_),
        bob_("bob", network_, bob_id_, rng_),
        carol_("carol", network_, carol_id_, rng_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    carol_.trust_peer("bob", bob_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    bob_.trust_peer("carol", carol_id_.public_key());
    alice_.store_shared("bob", "ttp", "shared", Bytes(256, 7), 64);
    network_.run();
    network_.set_adversary("bob", "carol", [](const net::Envelope&) {
      net::AdversaryAction action;
      action.kind = net::AdversaryAction::Kind::kDrop;
      return action;
    });
    carol_.open_shared("bob", "ttp", "shared");
    network_.run();
    network_.clear_adversary("bob", "carol");
  }

  [[nodiscard]] const std::vector<consistency::CommittedOp>& bob_log() const {
    return bob_.object_state("shared")->branches.front().log;
  }

  void expect_refused() const {
    const consistency::ConsClientActor::SharedObject* obj =
        carol_.object("shared");
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->rejected, 1u);
    EXPECT_EQ(obj->commits_applied, 0u);
    EXPECT_EQ(obj->chain.head_version(), 0u);
    EXPECT_TRUE(obj->chunks.empty());
    EXPECT_FALSE(obj->opened);
  }

  pki::Identity carol_id_;
  consistency::ConsClientActor alice_;
  consistency::ConsProviderActor bob_;
  consistency::ConsClientActor carol_;
};

TEST_F(ZeroChunkSizeTest, ViewUpdateStoreIsRefused) {
  ASSERT_EQ(carol_.object("shared")->chunk_size, 0u);
  ASSERT_EQ(bob_log().size(), 1u);
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u32(0);
  consistency::write_op_log(payload, bob_log());
  send_raw(network_, rng_, "bob", "carol", nr::MsgType::kViewUpdate,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  expect_refused();
}

TEST_F(ZeroChunkSizeTest, ConsCommitStoreIsRefused) {
  ASSERT_EQ(carol_.object("shared")->chunk_size, 0u);
  common::BinaryWriter payload;
  payload.str("shared");
  payload.u32(0);
  payload.bytes(bob_log().front().encode());
  send_raw(network_, rng_, "bob", "carol", nr::MsgType::kConsCommit,
           payload.take());
  EXPECT_NO_THROW(network_.run());
  expect_refused();
}

/// `w`'s bytes less the last one: every field but the final one decodes.
Bytes truncated(common::BinaryWriter& w) {
  Bytes bytes = w.take();
  bytes.pop_back();
  return bytes;
}

/// An encoded header, for payloads that carry one.
Bytes some_header() {
  nr::MessageHeader h;
  h.flag = nr::MsgType::kStoreRequest;
  h.sender = "alice";
  h.recipient = "bob";
  h.txn_id = "txn";
  return h.encode();
}

class TruncatedPayloadTest : public HostileMessageTest {
 protected:
  TruncatedPayloadTest() : ttp_id_(pooled("ttp")) {}

  /// Attaches `endpoint` as a peer that swallows everything it receives.
  void silent_peer(const std::string& endpoint) {
    network_.attach(endpoint, [](const net::Envelope&) {});
  }

  pki::Identity ttp_id_;
};

TEST_F(TruncatedPayloadTest, ClientResolveQuery) {
  nr::ClientActor alice("alice", network_, alice_id_, rng_);
  alice.trust_peer("ttp", ttp_id_.public_key());
  common::BinaryWriter payload;
  payload.bytes(some_header());
  send_raw(network_, rng_, "ttp", "alice", nr::MsgType::kResolveQuery,
           truncated(payload));
  network_.run();
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
  EXPECT_EQ(alice.stats().sent, 0u);  // no resolve response
}

/// Alice with one store escalated to a silent TTP (kResolvePending).
class ClientVerdictTest : public TruncatedPayloadTest {
 protected:
  ClientVerdictTest() : alice_("alice", network_, alice_id_, rng_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    alice_.trust_peer("ttp", ttp_id_.public_key());
    silent_peer("bob");
    silent_peer("ttp");
    txn_ = alice_.store("bob", "ttp", "obj", common::to_bytes("d"));
    network_.run();
  }

  void expect_untouched() {
    EXPECT_EQ(alice_.stats().rejected_bad_hash, 1u);
    const nr::ClientActor::Txn* txn = alice_.transaction(txn_);
    EXPECT_EQ(txn->state, nr::TxnState::kResolvePending);
    EXPECT_EQ(txn->history_size(), 2u);
    EXPECT_FALSE(txn->nrr.has_value());
    EXPECT_TRUE(txn->ttp_statement.empty());
  }

  nr::ClientActor alice_;
  std::string txn_;
};

TEST_F(ClientVerdictTest, ResolveVerdictPayload) {
  ASSERT_EQ(alice_.transaction(txn_)->state, nr::TxnState::kResolvePending);
  common::BinaryWriter payload;
  payload.str("continued");
  payload.bytes(some_header());
  payload.bytes(Bytes(16, 1));
  payload.bytes(Bytes(16, 2));
  payload.bytes(Bytes(16, 3));
  send_raw(network_, rng_, "ttp", "alice", nr::MsgType::kResolveVerdict,
           truncated(payload), txn_);
  network_.run();
  expect_untouched();
}

TEST_F(ClientVerdictTest, ResolveVerdictReceiptHeader) {
  ASSERT_EQ(alice_.transaction(txn_)->state, nr::TxnState::kResolvePending);
  Bytes receipt_header = some_header();
  receipt_header.pop_back();
  common::BinaryWriter payload;
  payload.str("continued");
  payload.bytes(receipt_header);
  payload.bytes(Bytes(16, 1));  // a receipt, so the header is decoded
  payload.bytes(Bytes{});
  payload.bytes(Bytes{});
  send_raw(network_, rng_, "ttp", "alice", nr::MsgType::kResolveVerdict,
           payload.take(), txn_);
  network_.run();
  expect_untouched();
}

/// Bob holding one stored transaction from Alice.
class ProviderTruncatedTest : public TruncatedPayloadTest {
 protected:
  ProviderTruncatedTest()
      : alice_("alice", network_, alice_id_, rng_),
        bob_("bob", network_, bob_id_, rng_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    bob_.trust_peer("ttp", ttp_id_.public_key());
    txn_ = alice_.store_chunked("bob", "ttp", "obj", Bytes(256, 5), 64);
    network_.run();
    sent_before_ = bob_.stats().sent;
  }

  void expect_untouched() {
    EXPECT_EQ(bob_.stats().rejected_bad_hash, 1u);
    EXPECT_EQ(bob_.stats().sent, sent_before_);
    const nr::ProviderActor::TxnRecord* record = bob_.transaction(txn_);
    EXPECT_EQ(record->state, nr::ProviderActor::TxnRecord::State::kStored);
    EXPECT_FALSE(record->client_acknowledged);
    EXPECT_TRUE(record->ttp_statement.empty());
  }

  nr::ClientActor alice_;
  nr::ProviderActor bob_;
  std::string txn_;
  std::uint64_t sent_before_ = 0;
};

TEST_F(ProviderTruncatedTest, ResolveVerdict) {
  ASSERT_NE(bob_.transaction(txn_), nullptr);
  common::BinaryWriter payload;
  payload.str("continued");
  payload.bytes(some_header());
  payload.bytes(Bytes(16, 1));
  payload.bytes(Bytes(16, 2));
  payload.bytes(Bytes(16, 3));
  send_raw(network_, rng_, "ttp", "bob", nr::MsgType::kResolveVerdict,
           truncated(payload), txn_);
  network_.run();
  expect_untouched();
}

TEST_F(ProviderTruncatedTest, ChunkRequest) {
  ASSERT_NE(bob_.transaction(txn_), nullptr);
  common::BinaryWriter payload;
  payload.u64(0);
  send_raw(network_, rng_, "alice", "bob", nr::MsgType::kChunkRequest,
           truncated(payload), txn_, /*seq_no=*/1000);
  network_.run();
  expect_untouched();
}

TEST_F(ProviderTruncatedTest, ResolveQuery) {
  ASSERT_NE(bob_.transaction(txn_), nullptr);
  common::BinaryWriter payload;
  payload.bytes(some_header());
  send_raw(network_, rng_, "ttp", "bob", nr::MsgType::kResolveQuery,
           truncated(payload), txn_);
  network_.run();
  expect_untouched();
}

TEST_F(TruncatedPayloadTest, TtpResolveRequest) {
  nr::TtpActor ttp("ttp", network_, ttp_id_, rng_);
  ttp.trust_peer("alice", alice_id_.public_key());
  ttp.trust_peer("bob", bob_id_.public_key());
  common::BinaryWriter payload;
  payload.str("bob");
  payload.str("no NRR before timeout");
  payload.bytes(some_header());
  payload.bytes(Bytes(16, 1));
  payload.bytes(Bytes(16, 2));
  send_raw(network_, rng_, "alice", "ttp", nr::MsgType::kResolveRequest,
           truncated(payload));
  network_.run();
  EXPECT_EQ(ttp.stats().rejected_bad_hash, 1u);
  EXPECT_EQ(ttp.stats().sent, 0u);
  EXPECT_TRUE(ttp.log().empty());
}

TEST_F(TruncatedPayloadTest, TtpResolveResponse) {
  // A live resolve: Alice escalates at 15 s, the TTP queries the silent
  // Bob. A truncated response in Bob's name lands inside the TTP's wait and
  // must not settle the case.
  nr::ClientActor alice("alice", network_, alice_id_, rng_);
  nr::TtpActor ttp("ttp", network_, ttp_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  alice.trust_peer("ttp", ttp_id_.public_key());
  ttp.trust_peer("alice", alice_id_.public_key());
  ttp.trust_peer("bob", bob_id_.public_key());
  silent_peer("bob");
  const std::string txn =
      alice.store("bob", "ttp", "obj", common::to_bytes("d"));
  network_.schedule(20 * common::kSecond, [&] {
    common::BinaryWriter payload;
    payload.str("continue");
    payload.bytes(some_header());
    payload.bytes(Bytes(16, 1));
    send_raw(network_, rng_, "bob", "ttp", nr::MsgType::kResolveResponse,
             truncated(payload), txn);
  });
  network_.run();
  EXPECT_EQ(ttp.stats().rejected_bad_hash, 1u);
  ASSERT_EQ(ttp.log().size(), 1u);
  EXPECT_EQ(ttp.log()[0].outcome, "no-response");  // the wait still ran out
}

TEST_F(TruncatedPayloadTest, DynMutateError) {
  dyn::DynClientActor alice("alice", network_, alice_id_, rng_,
                            common::to_bytes("master"));
  dyn::DynProviderActor bob("bob", network_, bob_id_, rng_);
  alice.trust_peer("bob", bob_id_.public_key());
  bob.trust_peer("alice", alice_id_.public_key());
  const std::string txn =
      alice.store_dyn("bob", "ttp", "doc", Bytes(256, 5), 64);
  network_.run();
  ASSERT_NE(alice.object("doc"), nullptr);
  // Bob's receipts are lost; the hostile error below still gets through.
  network_.set_adversary("bob", "alice", [](const net::Envelope& envelope) {
    net::AdversaryAction action;
    if (nr::NrMessage::decode(envelope.payload).header.flag ==
        nr::MsgType::kMutateReceipt) {
      action.kind = net::AdversaryAction::Kind::kDrop;
    }
    return action;
  });
  ASSERT_TRUE(alice.update("doc", 1, Bytes(64, 9)));

  // The error names the pending version; only its reason is cut short. A
  // decoded error would revert the update at once; this one must leave it
  // to run out its receipt wait.
  common::BinaryWriter payload;
  payload.str("doc");
  payload.u64(2);
  payload.str("stale");
  send_raw(network_, rng_, "bob", "alice", nr::MsgType::kMutateError,
           truncated(payload), txn, /*seq_no=*/1000);
  network_.run();
  EXPECT_EQ(alice.stats().rejected_bad_hash, 1u);
  const dyn::DynClientActor::DynObject* obj = alice.object("doc");
  EXPECT_EQ(obj->rejected, 0u);
  EXPECT_EQ(obj->timeouts, 1u);
  EXPECT_EQ(obj->chain.head_version(), 1u);
}

}  // namespace
}  // namespace tpnr
